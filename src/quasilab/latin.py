"""Latin square enumeration, counting oracles, and seeded sampling.

The enumerator is a cell-by-cell backtracker over row/column bitmasks,
emitting squares in lexicographic row-major order (candidate values are
tried smallest-first).  An independent counter guards it: a memoized
row-by-row dynamic program keyed on the multiset of column masks, which
shares no code with the backtracker.  The tests add a third, a literal
brute-force filter for n <= 4 (tests/latin_oracle.py).  Known counts: 1, 2, 12, 576, 161280, 812851200 for
n = 1..6.

Sampling runs the same backtracking shape with seeded shuffled candidate
order.  The resulting distribution over Latin squares is NOT uniform;
reports that consume samples must say so.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache


class OrderTooLarge(ValueError):
    def __init__(self, order: int, limit: int):
        self.order = order
        self.limit = limit
        super().__init__(f"order {order} exceeds the supported limit {limit}")


FULL_ENUMERATION_LIMIT = 6
SAMPLING_LIMIT = 10


def enumerate_latin_squares(n: int, emit=None) -> int:
    """Emit every n x n Latin square once, lexicographically; return count.

    emit receives each square as a tuple of row tuples.  Pass None to
    just count.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > FULL_ENUMERATION_LIMIT:
        raise OrderTooLarge(n, FULL_ENUMERATION_LIMIT)
    return sum(enumerate_with_first_row(n, row, emit) for row in first_rows(n))


def first_rows(n: int):
    """All possible first rows in lexicographic order.

    The enumeration tree partitions cleanly by first row, which is how
    scans split work across processes: per-first-row counts merge by
    plain addition in this order.
    """
    return itertools.permutations(range(n))


def enumerate_with_first_row(n: int, first_row: tuple[int, ...], emit=None) -> int:
    """Enumerate only the squares whose first row is the given one."""
    if n > FULL_ENUMERATION_LIMIT:
        raise OrderTooLarge(n, FULL_ENUMERATION_LIMIT)
    count = 0
    for square in _backtrack(n, first_row=first_row, rng=None):
        count += 1
        if emit is not None:
            emit(square)
    return count


def _backtrack(n: int, first_row, rng, allowed=None, cell_check=None):
    """Generator over Latin squares via row/column bitmask backtracking.

    With rng None, candidates are tried in increasing value order, which
    makes the overall emission order lexicographic row-major.  With an
    rng, candidate order is shuffled per cell (used by sampling, which
    stops after the first hit).

    allowed, a list of n * n value masks in row-major cell order, limits
    the values each cell the search fills may take (a given first row is
    taken as it is).  A mask is read when the search reaches its cell, so
    cell_check may narrow the masks of the cells after pos.
    cell_check(grid, pos) is called each time the cell at row-major index
    pos is filled, the cells of a given first row included.  Cells fill
    in row-major order, so at that call every cell before pos holds its
    value and every cell after it is empty (grid may still show stale
    values there).  A value it rejects is skipped and the cell tries its
    next candidate; a given first row it rejects yields nothing.
    """
    full = (1 << n) - 1
    if allowed is None:
        allowed = [full] * (n * n)
    grid = [[0] * n for _ in range(n)]
    row_mask = [0] * n
    col_mask = [0] * n
    start = 0
    if first_row is not None:
        for c, v in enumerate(first_row):
            grid[0][c] = v
            row_mask[0] |= 1 << v
            col_mask[c] |= 1 << v
            if cell_check is not None and not cell_check(grid, c):
                return
        start = n

    # iterative stack of (pos, remaining-candidates mask or list)
    total_cells = n * n
    pos = start
    choices: list = [None] * (total_cells + 1)

    def candidates(pos):
        r, c = divmod(pos, n)
        avail = allowed[pos] & ~(row_mask[r] | col_mask[c])
        if rng is None:
            return avail
        vals = [v for v in range(n) if avail >> v & 1]
        rng.shuffle(vals)
        return vals

    if start == total_cells:
        yield tuple(tuple(row) for row in grid)
        return
    choices[pos] = candidates(pos)
    while pos >= start:
        r, c = divmod(pos, n)
        if rng is None:
            avail = choices[pos]
            if avail:
                bit = avail & -avail
                choices[pos] = avail ^ bit
                v = bit.bit_length() - 1
            else:
                v = None
        else:
            v = choices[pos].pop() if choices[pos] else None
        if v is None:
            pos -= 1
            if pos >= start:
                rr, cc = divmod(pos, n)
                bit = 1 << grid[rr][cc]
                row_mask[rr] ^= bit
                col_mask[cc] ^= bit
            continue
        grid[r][c] = v
        if cell_check is not None and not cell_check(grid, pos):
            continue  # the value fails: try this cell's next candidate
        bit = 1 << v
        row_mask[r] |= bit
        col_mask[c] |= bit
        pos += 1
        if pos == total_cells:
            yield tuple(tuple(row) for row in grid)
            row_mask[r] ^= bit
            col_mask[c] ^= bit
            pos -= 1
        else:
            choices[pos] = candidates(pos)


def count_latin_squares_memoized(n: int) -> int:
    """Second independent counter: row-by-row DP on column-mask multisets.

    After k rows, each column carries the mask of values it has used.
    The number of ways to finish depends only on the multiset of those
    masks (permuting columns together with their masks is a bijection on
    completions), so states are sorted mask tuples and memoization
    collapses the exponential tree.  Fast through n = 6.
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


def sample_latin_squares(n: int, count: int, seed: int) -> list[tuple[tuple[int, ...], ...]]:
    """count seeded pseudo-random Latin squares of order n (n <= 10).

    Each draw restarts the backtracker with shuffled candidate order and
    takes the first completion.  Reproducible per seed; the distribution
    is not uniform.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > SAMPLING_LIMIT:
        raise OrderTooLarge(n, SAMPLING_LIMIT)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        square = next(_backtrack(n, first_row=None, rng=rng))
        out.append(square)
    return out
