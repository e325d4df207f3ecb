"""Cayley table validation, divisions, and the text format."""

import pytest

from quasilab.cayley import (
    CayleyError,
    ColumnDuplicate,
    FiniteQuasigroup,
    OutOfRange,
    RowDuplicate,
    TableFormatError,
    cyclic_group,
    format_table_text,
    parse_table_text,
    subtraction_mod,
    validate_cayley,
)
from quasilab.latin import enumerate_latin_squares, sample_latin_squares

Z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
SUB3 = [[0, 2, 1], [1, 0, 2], [2, 1, 0]]


def test_validate_accepts_latin_square():
    q = validate_cayley(Z3)
    assert q.order == 3
    assert q.multiply(1, 2) == 0


def test_validate_row_duplicate():
    with pytest.raises(RowDuplicate) as info:
        validate_cayley([[0, 0], [1, 1]])
    assert info.value.row == 0
    assert info.value.value == 0


def test_validate_column_duplicate():
    # rows are fine, column 0 repeats 0
    with pytest.raises(ColumnDuplicate) as info:
        validate_cayley([[0, 1], [0, 1]])
    assert info.value.col == 0


def test_validate_out_of_range():
    with pytest.raises(OutOfRange) as info:
        validate_cayley([[0, 1], [1, 2]])
    assert info.value.entry == 2
    assert info.value.order == 2


def test_validate_rejects_bools_and_ragged_rows():
    with pytest.raises(OutOfRange):
        validate_cayley([[True, False], [False, True]])
    with pytest.raises(CayleyError):
        validate_cayley([[0, 1], [1]])
    with pytest.raises(CayleyError):
        validate_cayley([])


def test_translations_are_rows_and_columns():
    q = validate_cayley(SUB3)
    assert q.left_translation(1).images == (1, 0, 2)
    assert q.right_translation(1).images == (2, 0, 1)
    assert q.columns == ((0, 1, 2), (2, 0, 1), (1, 2, 0))


def test_divisions_solve_their_equations():
    for table in (Z3, SUB3):
        q = validate_cayley(table)
        for a in range(q.order):
            for b in range(q.order):
                x = q.left_divide(a, b)
                assert q.multiply(a, x) == b
                y = q.right_divide(a, b)
                assert q.multiply(y, a) == b


def test_divisions_on_sampled_squares():
    # divisions are inverted rows and columns: every order-4 square, and
    # seeded squares up to order 7
    squares = []
    enumerate_latin_squares(4, squares.append)
    squares += sample_latin_squares(5, 10, seed=3)
    squares += sample_latin_squares(6, 4, seed=6) + sample_latin_squares(7, 3, seed=7)
    for square in squares:
        q = FiniteQuasigroup(square)
        for a in range(q.order):
            for b in range(q.order):
                assert q.multiply(a, q.left_divide(a, b)) == b
                assert q.multiply(q.right_divide(a, b), a) == b


def test_identity_detection():
    assert validate_cayley(Z3).find_identity() == 0
    assert validate_cayley(Z3).is_loop()
    assert validate_cayley(SUB3).find_identity() is None
    assert not validate_cayley(SUB3).is_loop()
    # identity element need not be 0
    shifted = [[1, 0], [0, 1]]
    assert validate_cayley(shifted).find_identity() == 1


def test_builtin_families():
    assert cyclic_group(4).table[2] == (2, 3, 0, 1)
    assert subtraction_mod(3).table == tuple(tuple(r) for r in SUB3)
    assert subtraction_mod(2).is_loop()  # x - y = x + y mod 2
    assert not subtraction_mod(3).is_loop()


def test_labels_round_trip_through_validation():
    q = validate_cayley(Z3, labels=["e", "g", "h"])
    assert q.label_of(1) == "g"
    with pytest.raises(CayleyError):
        validate_cayley(Z3, labels=["e", "e", "h"])
    with pytest.raises(CayleyError):
        validate_cayley(Z3, labels=["e", "g"])


def test_labels_are_checked_after_the_latin_property():
    with pytest.raises(CayleyError, match="labels must be n distinct strings"):
        validate_cayley([[0, 1], [1, 0]], labels=["a", "a"])
    # a table that is not Latin fails as such, whatever its labels
    with pytest.raises(RowDuplicate) as info:
        validate_cayley([[0, 0], [0, 0]], labels=["a"])
    assert (info.value.row, info.value.value) == (0, 0)


def test_parse_integer_table():
    text = "# additive group\n3\n0 1 2\n1 2 0\n2 0 1\n"
    q = parse_table_text(text)
    assert q.table == validate_cayley(Z3).table
    assert q.labels is None


def test_parse_label_table():
    text = "3\ne a b\na b e\nb e a\n"
    q = parse_table_text(text)
    # labels indexed by first appearance: e=0, a=1, b=2
    assert q.labels == ("e", "a", "b")
    assert q.table[0] == (0, 1, 2)
    assert q.label_of(2) == "b"


def test_parse_errors_carry_position():
    with pytest.raises(TableFormatError) as info:
        parse_table_text("")
    assert info.value.line == 1

    with pytest.raises(TableFormatError) as info:
        parse_table_text("x\n")
    assert info.value.line == 1

    # wrong token count on a body line
    with pytest.raises(TableFormatError) as info:
        parse_table_text("2\n0 1\n1\n")
    assert info.value.line == 3

    # integer entry out of range, with its column
    with pytest.raises(TableFormatError) as info:
        parse_table_text("2\n0 1\n1 5\n")
    assert info.value.line == 3
    assert info.value.column == 2

    with pytest.raises(TableFormatError):
        parse_table_text("2\n0 1\n")  # missing a row

    # too many distinct labels
    with pytest.raises(TableFormatError):
        parse_table_text("2\na b\nb c\n")

    # an order below 1, on the first line that is not a comment
    with pytest.raises(TableFormatError, match="order must be >= 1, got 0") as info:
        parse_table_text("# empty\n0\n")
    assert (info.value.line, info.value.column) == (2, 1)


def test_parse_an_invalid_latin_square_is_not_a_format_error():
    # shape is fine, content repeats in a row: CayleyError, not
    # TableFormatError, so callers can map the two to different exits
    with pytest.raises(RowDuplicate):
        parse_table_text("2\n0 0\n1 1\n")


def test_format_parse_round_trip():
    q = validate_cayley(SUB3)
    text = format_table_text(q, comment="sample")
    assert text.startswith("# sample\n3\n")
    assert parse_table_text(text).table == q.table
    for square in sample_latin_squares(4, 5, seed=11):
        q = FiniteQuasigroup(square)
        assert parse_table_text(format_table_text(q)).table == q.table


def test_equality_and_hash_follow_the_table():
    a = validate_cayley(Z3)
    b = parse_table_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    assert a == b
    assert hash(a) == hash(b)
    assert a != validate_cayley(SUB3)
