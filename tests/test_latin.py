"""Latin square enumeration: four counting routes plus seeded sampling."""

from math import factorial

import pytest

from quasilab.cayley import validate_cayley
from quasilab.latin import (
    FULL_ENUMERATION_LIMIT,
    SAMPLING_LIMIT,
    OrderTooLarge,
    _backtrack,
    count_latin_squares_memoized,
    enumerate_latin_squares,
    enumerate_with_first_row,
    first_rows,
    sample_latin_squares,
)

from latin_oracle import (
    LATIN_7,
    REDUCED_COUNTS,
    count_latin_squares_bruteforce,
    count_latin_squares_unreduced,
)

KNOWN_COUNTS = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280, 6: 812851200}


def test_enumeration_counts_orders_1_to_4():
    for n in range(1, 5):
        assert enumerate_latin_squares(n) == KNOWN_COUNTS[n]


def test_bruteforce_oracle_matches():
    for n in range(1, 5):
        assert count_latin_squares_bruteforce(n) == KNOWN_COUNTS[n]
    with pytest.raises(OrderTooLarge) as info:
        count_latin_squares_bruteforce(5)
    assert info.value.limit == 4


def test_memoized_oracle_matches_including_order_6():
    for n in range(1, 7):
        assert count_latin_squares_memoized(n) == KNOWN_COUNTS[n]


def test_reduced_counter_matches_the_unreduced_oracle():
    for n in range(1, 7):
        unreduced = count_latin_squares_unreduced(n)
        assert unreduced == KNOWN_COUNTS[n]
        assert count_latin_squares_memoized(n) == unreduced


def test_memoized_count_matches_the_published_values():
    for n in range(1, 8):
        count = count_latin_squares_memoized(n)
        assert count == factorial(n) * factorial(n - 1) * REDUCED_COUNTS[n]
    assert count == LATIN_7


def test_reduced_counts_are_the_identity_row_squares_with_column_0_in_order():
    for n in range(1, 6):
        squares = []
        enumerate_with_first_row(n, tuple(range(n)), squares.append)
        reduced = [sq for sq in squares if all(sq[r][0] == r for r in range(n))]
        assert len(reduced) == REDUCED_COUNTS[n]
    assert len(reduced) == 56


def test_emission_is_lexicographic_row_major():
    squares = []
    enumerate_latin_squares(3, squares.append)
    assert len(squares) == 12
    flat = [sum(sq, ()) for sq in squares]
    assert flat == sorted(flat)
    # the first order-3 square is the cyclic group table
    assert squares[0] == ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def test_masks_and_cell_checks_filter_the_enumeration():
    squares = []
    enumerate_latin_squares(4, squares.append)
    allowed = [15] * 16
    allowed[5] = 1 << 2  # cell (1, 1) holds 2
    calls = []

    def identity_column(grid, pos):  # cells 0..pos are filled
        r, c = divmod(pos, 4)
        filled = [grid[i // 4][i % 4] for i in range(pos + 1)]
        calls.append((pos, filled))
        return c != 0 or grid[r][0] == r

    got = list(_backtrack(4, None, None, allowed, identity_column))
    assert got == [
        sq for sq in squares if sq[1][1] == 2 and all(sq[r][0] == r for r in range(4))
    ]
    # cells fill in row-major order: each call is at most one past the last,
    # and the filled cells repeat no value in a row or a column
    assert calls[0][0] == 0
    assert all(pos <= last + 1 for (last, _), (pos, _) in zip(calls, calls[1:]))
    for pos, filled in calls:
        for line in [filled[r * 4 : r * 4 + 4] for r in range(4)] + [filled[c::4] for c in range(4)]:
            assert len(set(line)) == len(line)
    # a rejected value is skipped, not the branch: cell (1, 0) tries 3
    # right after 2 fails there
    tried = [(pos, filled[pos]) for pos, filled in calls]
    assert ((4, 2), (4, 3)) in zip(tried, tried[1:])
    # the cells of a given first row are checked too, and one the check
    # rejects yields nothing
    calls.clear()
    assert list(_backtrack(4, (1, 0, 2, 3), None, allowed, identity_column)) == []
    assert [pos for pos, _ in calls] == [0]
    calls.clear()
    rows = list(_backtrack(4, (0, 1, 2, 3), None, allowed, identity_column))
    assert rows == [sq for sq in got if sq[0] == (0, 1, 2, 3)]
    assert [pos for pos, _ in calls[:5]] == [0, 1, 2, 3, 4]


def test_emitted_squares_are_latin():
    squares = []
    enumerate_latin_squares(4, squares.append)
    for sq in squares:
        validate_cayley(sq)  # raises on any violation
    assert len(set(squares)) == 576


def test_first_row_partition():
    rows = list(first_rows(4))
    assert len(rows) == 24
    assert rows == sorted(rows)
    total = 0
    for row in rows:
        got = []
        count = enumerate_with_first_row(4, row, got.append)
        assert count == len(got)
        assert all(sq[0] == row for sq in got)
        total += count
    assert total == 576


def test_enumeration_order_limit():
    with pytest.raises(OrderTooLarge) as info:
        enumerate_latin_squares(FULL_ENUMERATION_LIMIT + 1)
    assert info.value.order == 7
    row = tuple(range(FULL_ENUMERATION_LIMIT + 1))
    with pytest.raises(OrderTooLarge) as info:
        enumerate_with_first_row(FULL_ENUMERATION_LIMIT + 1, row)
    assert (info.value.order, info.value.limit) == (7, FULL_ENUMERATION_LIMIT)


@pytest.mark.parametrize("row", [(0, 1), (0, 1, 5), (0, 1, 1), (0, 1, 2, 3)])
def test_a_first_row_that_is_not_a_permutation_is_refused(row):
    with pytest.raises(ValueError, match="not a permutation of range"):
        enumerate_with_first_row(3, row)


def test_a_negative_sample_count_is_refused():
    with pytest.raises(ValueError, match="count must be >= 0"):
        sample_latin_squares(4, -1, seed=0)
    assert sample_latin_squares(4, 0, seed=0) == []


@pytest.mark.parametrize("n", [0, -1])
def test_orders_below_1_are_refused(n):
    with pytest.raises(ValueError, match="order must be >= 1"):
        enumerate_latin_squares(n)
    with pytest.raises(ValueError, match="order must be >= 1"):
        enumerate_with_first_row(n, ())
    with pytest.raises(ValueError, match="order must be >= 1"):
        count_latin_squares_memoized(n)
    with pytest.raises(ValueError, match="order must be >= 1"):
        sample_latin_squares(n, 1, seed=0)


def test_sampling_determinism():
    a = sample_latin_squares(5, 12, seed=42)
    b = sample_latin_squares(5, 12, seed=42)
    assert a == b
    c = sample_latin_squares(5, 12, seed=43)
    assert c != a


def test_samples_are_valid_latin_squares():
    for n in (2, 5, 7, 10):
        samples = sample_latin_squares(n, 4, seed=0)
        assert len(samples) == 4
        for sq in samples:
            validate_cayley(sq)


def test_sampling_order_limit():
    with pytest.raises(OrderTooLarge):
        sample_latin_squares(SAMPLING_LIMIT + 1, 1, seed=0)


def test_sampling_hits_more_than_one_square():
    # not uniform, but the seeded draws do vary
    samples = sample_latin_squares(5, 30, seed=5)
    assert len(set(samples)) > 1
