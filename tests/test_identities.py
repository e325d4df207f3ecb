"""Identity parsing, term evaluation, and the two routes to (N1)."""

import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import quasilab

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
    CheckResult,
    Identity,
    LeftDivide,
    Multiply,
    ParseError,
    RightDivide,
    UnknownIdentityError,
    Variable,
    VariableLimitExceeded,
    builtin_identities,
    builtin_identity,
    check_identity,
    compile_identity,
    n1_equivalence_report,
    parse_identity,
    pretty,
)
from quasilab.latin import enumerate_latin_squares, sample_latin_squares


def evaluate_term(q: FiniteQuasigroup, term, assignment: dict) -> int:
    """Evaluate one term under a {name: element} assignment.

    Runs the program that compile_identity makes for check_identity, so
    the tests below pin its division orientation one term at a time.
    """
    names = []
    identities._collect_variables(term, names)
    program, register, _ = compile_identity(Identity(term, term, tuple(names)))
    tables = (q.table, *q._division_tables())
    registers = [assignment[name] for name in names]
    for op, a, b in program:
        registers.append(tables[op][registers[a]][registers[b]])
    return registers[register]


def walk_term(q: FiniteQuasigroup, term, env: dict) -> int:
    """The value of term under env, by recursion over the tree.

    Apart from the compiled program: each division is solved by search
    over the table, a\\b as the x with a*x = b and a/b as the y with y*b = a.
    """
    if isinstance(term, Variable):
        return env[term.name]
    a, b = walk_term(q, term.left, env), walk_term(q, term.right, env)
    if isinstance(term, Multiply):
        return q.multiply(a, b)
    if isinstance(term, LeftDivide):
        (x,) = [x for x in range(q.order) if q.multiply(a, x) == b]
        return x
    assert isinstance(term, RightDivide)
    (y,) = [y for y in range(q.order) if q.multiply(y, b) == a]
    return y


def walk_identity(q: FiniteQuasigroup, identity: Identity) -> CheckResult:
    """check_identity's answer, from the first failing assignment the tree walker finds."""
    for assignment in itertools.product(range(q.order), repeat=len(identity.variables)):
        env = dict(zip(identity.variables, assignment))
        lhs, rhs = walk_term(q, identity.lhs, env), walk_term(q, identity.rhs, env)
        if lhs != rhs:
            return CheckResult(holds=False, counterexample=env, lhs_value=lhs, rhs_value=rhs)
    return CheckResult(holds=True)


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


def test_the_program_lists_the_lhs_steps_first():
    program, lhs, rhs = compile_identity(parse_identity("((x*y)\\z) = (x/(y*z))"))
    # registers 0-2 hold x, y, z; steps write 3, 4, ...
    assert program == [(0, 0, 1), (1, 3, 2), (0, 1, 2), (2, 0, 5)]
    assert (lhs, rhs) == (4, 6)
    assert compile_identity(parse_identity("x = (y*x)")) == ([(0, 1, 0)], 0, 2)


def test_repeated_checks_compile_an_identity_once(monkeypatch):
    """The compiler reads each step's opcode once per identity, not once per check."""
    reads = []

    class CountingOpcodes(dict):
        def __getitem__(self, key):
            reads.append(key)
            return dict.__getitem__(self, key)

    monkeypatch.setattr(identities, "_OPCODES", CountingOpcodes(identities._OPCODES))
    # variable names no other test uses, so no earlier compilation is reused
    identity = parse_identity("((once_a*once_b)*once_a) = (once_a*(once_b*once_a))")
    for q in (cyclic_group(3), subtraction_mod(3), cyclic_group(3)):
        check_identity(q, identity)
    assert len(reads) == 4  # four steps, compiled on the first check only
    program, lhs, rhs = compile_identity(identity)
    program.clear()  # a caller's copy: the compiled program stays whole
    assert compile_identity(identity) == ([(0, 0, 1), (0, 2, 0), (0, 1, 0), (0, 0, 4)], 3, 5)
    assert len(reads) == 4


def _all_squares(n) -> list:
    squares = []
    enumerate_latin_squares(n, squares.append)
    return squares


# every square of order <= 3, and seeded samples of orders 4 and 5
_ORACLE_QUASIGROUPS = [
    FiniteQuasigroup(tuple(square))
    for square in _all_squares(1) + _all_squares(2) + _all_squares(3)
    + sample_latin_squares(4, 3, seed=4) + sample_latin_squares(5, 3, seed=5)
]


@st.composite
def mixed_identities(draw):
    """An identity in 1-3 variables with *, \\ and /, each side of depth <= 3."""
    names = "xyz"[: draw(st.integers(1, 3))]

    def term(depth):
        if depth == 0 or draw(st.booleans()):
            return draw(st.sampled_from(names))
        op = draw(st.sampled_from(["*", "\\", "/"]))
        return f"({term(depth - 1)}{op}{term(depth - 1)})"

    return parse_identity(f"{term(3)} = {term(3)}")


@given(mixed_identities())
@example(parse_identity(DIVISION_LAWS[0]))
@example(parse_identity("((x\\y)/z) = (z*(y/x))"))
@example(parse_identity("(x/y) = (y\\x)"))
def test_check_identity_matches_the_tree_walker(identity):
    for q in _ORACLE_QUASIGROUPS:
        assert check_identity(q, identity) == walk_identity(q, identity), q.table


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


TERM_NODES = {"Variable", "Multiply", "LeftDivide", "RightDivide"}


def _term_node_imports(tree: ast.AST) -> list[str]:
    """Where a module takes a term node class from identities."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "identities":
                found += [
                    f"line {node.lineno}: import {alias.name}"
                    for alias in node.names
                    if alias.name in TERM_NODES
                ]
            else:
                modules |= {alias.asname or alias.name for alias in node.names
                            if alias.name == "identities"}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name.split(".")[-1] == "identities"}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in TERM_NODES
            and ast.unparse(node.value) in modules
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_rules_catch_term_node_imports():
    source = (
        "from .identities import Multiply, pretty\n"
        "from quasilab.identities import Variable as V\n"
        "from . import identities as ids\n"
        "import quasilab.identities\n"
        "x = ids.LeftDivide, quasilab.identities.RightDivide, ids.pretty\n"
    )
    assert _term_node_imports(ast.parse(source)) == [
        "line 1: import Multiply",
        "line 2: import Variable",
        "line 5: ids.LeftDivide",
        "line 5: quasilab.identities.RightDivide",
    ]


def test_only_identities_knows_the_term_tree():
    """The rest of the package runs compile_identity's program instead."""
    package = Path(quasilab.__file__).parent
    sources = sorted(p for p in package.glob("*.py") if p.name != "identities.py")
    assert len(sources) > 5
    for path in sources:
        assert _term_node_imports(ast.parse(path.read_text(), str(path))) == [], path.name
