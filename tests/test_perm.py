"""Permutation primitive: composition convention and inverse laws."""

import ast
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import quasilab
from quasilab.perm import DegreeMismatch, Perm, compose_images, invert_images


def test_identity_fixes_everything():
    e = Perm.identity(5)
    assert e.images == (0, 1, 2, 3, 4)
    assert e.is_identity()


def test_composition_applies_right_factor_first():
    # (s @ t)(x) = s(t(x)); this convention is relied on by the operator
    # form of the identity checks, so freeze it on a concrete pair
    s = Perm((1, 2, 0))
    t = Perm((0, 2, 1))
    st_ = s @ t
    assert st_.images == (1, 0, 2)
    ts = t @ s
    assert ts.images == (2, 1, 0)


def test_from_images_rejects_non_permutations():
    with pytest.raises(ValueError):
        Perm((0, 0, 1))
    with pytest.raises(ValueError):
        Perm((0, 3, 1))


def test_compose_rejects_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        Perm((1, 0)) @ Perm((1, 2, 0))


def test_inverse_concrete():
    p = Perm((2, 0, 3, 1))
    assert p.inverse().images == (1, 3, 0, 2)


perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(range(n))
)


@given(perms)
def test_inverse_law(images):
    p = Perm(tuple(images))
    e = Perm.identity(p.degree)
    assert p @ p.inverse() == e
    assert p.inverse() @ p == e


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(*[st.permutations(range(n))] * 3)
))
def test_composition_associative(triple):
    s, t, u = (Perm(tuple(x)) for x in triple)
    assert (s @ t) @ u == s @ (t @ u)


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
))
def test_raw_helpers_match_perm_algebra(pair):
    s, t = (tuple(x) for x in pair)
    assert compose_images(s, t) == (Perm(s) @ Perm(t)).images
    assert invert_images(s) == Perm(s).inverse().images


def _unchecked_constructions(tree: ast.AST) -> list[int]:
    """The lines naming object.__new__, which makes an instance past __post_init__."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "object.__new__"
    )


def test_rules_catch_unchecked_constructions():
    source = (
        "p = object.__new__(Perm)\n"
        "make = object.__new__\n"
        "q = Perm((0,))\n"
    )
    assert _unchecked_constructions(ast.parse(source)) == [1, 2]


def test_every_perm_is_validated():
    """No module can make a Perm, or anything else, past its checks."""
    found = [
        f"{path.name} line {line}"
        for path in sorted(Path(quasilab.__file__).parent.glob("*.py"))
        for line in _unchecked_constructions(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
