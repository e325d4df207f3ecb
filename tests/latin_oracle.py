"""Latin squares counted by brute force: the tests' oracle.

The package enumerates Latin squares with a backtracker and counts them
with a memoized dynamic program on column masks.  This module counts
them a third way, by filtering candidate arrays literally, with no
backtracking and no masks, so the tests can hold both package routes
against it for n <= 4.
"""

from __future__ import annotations

import itertools

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
