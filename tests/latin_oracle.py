"""Latin squares counted by routes the package does not take: the tests' oracles.

The package enumerates Latin squares with a backtracker and counts them
through the reduced squares, with a memoized dynamic program that fixes
the first row and the first column.  This module counts them two more
ways, so the tests can hold both package routes against them:

- count_latin_squares_unreduced, the same kind of dynamic program over
  every first row, with nothing fixed (the package's counter before it
  counted reduced squares), for n <= 6;
- count_latin_squares_bruteforce, which filters candidate arrays
  literally, with no backtracking and no masks, for n <= 4.

It also holds the published counts (McKay and Wanless, "On the number of
Latin squares", 2005): REDUCED_COUNTS, R(n) for n = 1..7, and
LATIN_7, L(7).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from quasilab.latin import OrderTooLarge


def _is_latin(rows, n) -> bool:
    target = set(range(n))
    for row in rows:
        if set(row) != target:
            return False
    for c in range(n):
        if {row[c] for row in rows} != target:
            return False
    return True


REDUCED_COUNTS = {1: 1, 2: 1, 3: 1, 4: 4, 5: 56, 6: 9408, 7: 16942080}
LATIN_7 = 61479419904000


def count_latin_squares_unreduced(n: int) -> int:
    """Row-by-row DP on column-mask multisets, over every first row.

    After k rows, each column carries the mask of values it has used.
    The number of ways to finish depends only on the multiset of those
    masks (permuting columns together with their masks is a bijection on
    completions), so states are sorted mask tuples and memoization
    collapses the exponential tree.  Fast through n = 6; order 7 takes
    several seconds.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def finish(state: tuple[int, ...]) -> int:
        if state[0] == full:
            return 1
        total = 0
        # enumerate valid next rows: a value per column, distinct across
        # the row and unused in each column
        masks = list(state)

        def place(col: int, used_row: int, acc):
            nonlocal total
            if col == n:
                total += finish(tuple(sorted(acc)))
                return
            avail = full & ~(masks[col] | used_row)
            while avail:
                bit = avail & -avail
                avail ^= bit
                acc.append(masks[col] | bit)
                place(col + 1, used_row | bit, acc)
                acc.pop()

        place(0, 0, [])
        return total

    return finish(tuple([0] * n))


def count_latin_squares_bruteforce(n: int) -> int:
    """Independent counting oracle, no backtracking.

    n <= 3: filter literally all n^(n*n) integer arrays.  n = 4: filter
    all 24^4 choices of four permutation rows on the column condition
    (row condition already holds by construction).  Larger n refused.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n <= 3:
        count = 0
        cells = n * n
        for flat in itertools.product(range(n), repeat=cells):
            rows = [flat[i * n : (i + 1) * n] for i in range(n)]
            if _is_latin(rows, n):
                count += 1
        return count
    if n == 4:
        perms = list(itertools.permutations(range(4)))
        count = 0
        for rows in itertools.product(perms, repeat=4):
            for c in range(4):
                col = {rows[0][c], rows[1][c], rows[2][c], rows[3][c]}
                if len(col) != 4:
                    break
            else:
                count += 1
        return count
    raise OrderTooLarge(n, 4)
