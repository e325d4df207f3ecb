"""Exact linear algebra over the rationals: the tests' oracle.

Plain Gaussian elimination with Fraction arithmetic gives exact kernels
of small dense systems (a few hundred unknowns at most); a float
nullspace could not certify that a solution space is exactly
zero-dimensional.  The package itself needs no elimination: the
character space and the invariant measures are settled by theorem.  The
tests use this module as the independent slow route both are compared
with.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form, in place on a copy.

    Returns (matrix, pivot_columns).  Pivoting is deterministic: first
    row with a nonzero entry in the leftmost unresolved column.
    """
    m = [list(map(Fraction, row)) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace(rows: list[list[Fraction]], ncols: int | None = None):
    """Basis of {v : A v = 0} as lists of Fractions.

    One basis vector per free column, free variable set to 1; basis order
    follows column order, so output is deterministic.
    """
    if not rows:
        n = ncols if ncols is not None else 0
        basis = []
        for j in range(n):
            v = [Fraction(0)] * n
            v[j] = Fraction(1)
            basis.append(v)
        return basis
    n = len(rows[0])
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def matvec(rows, v):
    """A v with exact arithmetic; used by tests to certify kernels."""
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in rows]


def character_equation_rows(q) -> list[list[int]]:
    """The rows e[x*y] - e[x] - e[y] of the character equations of q.

    A character is a vector v of logarithms with v[x*y] = v[x] + v[y], so
    the character space is the nullspace of these rows.  They are built
    here apart from the package.
    """
    rows = []
    for x in range(q.order):
        for y in range(q.order):
            row = [0] * q.order
            row[q.table[x][y]] += 1
            row[x] -= 1
            row[y] -= 1
            rows.append(row)
    return rows
