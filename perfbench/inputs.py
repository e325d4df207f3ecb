"""Seeded inputs for the benchmark workloads, and the facts used to check them.

The program under test receives only the tables and seeds made here.
Group tables are built from their defining rules, without the package,
so the benchmark can hold the package's verdicts against facts it
computed on its own: associativity, the identity element and the size
of the centre.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from quasilab.latin import enumerate_with_first_row, first_rows, sample_latin_squares

Table = tuple[tuple[int, ...], ...]

CORPUS_ORDER = 6
LOOP_ORDER = 5
SCAN_ORDER = 5
GROUP_COPIES = 4
SCAN_PROBE_ROWS = 4


@dataclass(frozen=True)
class Item:
    """One table with the facts the benchmark knows about it."""

    name: str
    table: Table
    is_loop: bool
    is_group: bool
    center_size: int


def _freeze(rows) -> Table:
    return tuple(tuple(row) for row in rows)


def cyclic(n: int) -> Table:
    return _freeze([(i + j) % n for j in range(n)] for i in range(n))


def abelian_product(*orders: int) -> Table:
    """Z_m1 x Z_m2 x ... with elements numbered in lexicographic order."""
    elements = list(itertools.product(*(range(m) for m in orders)))
    index = {e: i for i, e in enumerate(elements)}
    return _freeze(
        [index[tuple((a + b) % m for a, b, m in zip(x, y, orders))] for y in elements]
        for x in elements
    )


def symmetric3() -> Table:
    """S3 as permutations of {0, 1, 2}; (p q)(i) = p(q(i))."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return _freeze(
        [index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms
    )


def dihedral4() -> Table:
    """D4 of order 8: r^k s^e, with (k1, e1)(k2, e2) = (k1 + (-1)^e1 k2, e1 + e2)."""
    elements = [(k, e) for e in range(2) for k in range(4)]
    index = {x: i for i, x in enumerate(elements)}
    return _freeze(
        [
            index[((k1 + (k2 if e1 == 0 else -k2)) % 4, e1 ^ e2)]
            for (k2, e2) in elements
        ]
        for (k1, e1) in elements
    )


GROUPS: dict[str, Table] = {
    **{f"Z{n}": cyclic(n) for n in range(4, 9)},
    "Z2xZ2": abelian_product(2, 2),
    "Z2xZ4": abelian_product(2, 4),
    "Z2^3": abelian_product(2, 2, 2),
    "S3": symmetric3(),
    "D4": dihedral4(),
}


def relabel(table: Table, perm) -> Table:
    """The isomorphic copy with element x renamed perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return _freeze(out)


def identity_element(table: Table):
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    return None


def is_associative(table: Table) -> bool:
    n = range(len(table))
    return all(
        table[table[x][y]][z] == table[x][table[y][z]] for x in n for y in n for z in n
    )


def center_size(table: Table) -> int:
    n = range(len(table))
    return sum(1 for z in n if all(table[z][x] == table[x][z] for x in n))


def describe(name: str, table: Table) -> Item:
    loop = identity_element(table) is not None
    group = loop and is_associative(table)
    return Item(
        name=name,
        table=table,
        is_loop=loop,
        is_group=group,
        center_size=center_size(table) if group else 0,
    )


def reduced_loops(n: int) -> list[Table]:
    """Loops on {0..n-1} with identity 0: first row and first column in order."""
    squares: list[Table] = []
    enumerate_with_first_row(n, tuple(range(n)), squares.append)
    return [sq for sq in squares if tuple(row[0] for row in sq) == tuple(range(n))]


def corpus_items(seed: int, count: int) -> list[Item]:
    squares = sample_latin_squares(CORPUS_ORDER, count, seed)
    return [describe(f"sample{i}", sq) for i, sq in enumerate(squares)]


def loop_items(seed: int) -> list[Item]:
    """GROUP_COPIES relabelled copies of each group, then every reduced order-5 loop, relabelled."""
    rng = random.Random(seed)

    def shuffled(n):
        perm = list(range(n))
        rng.shuffle(perm)
        return perm

    items = []
    for name, table in GROUPS.items():
        for copy in range(GROUP_COPIES):
            items.append(describe(f"{name}#{copy}", relabel(table, shuffled(len(table)))))
    for i, table in enumerate(reduced_loops(LOOP_ORDER)):
        items.append(describe(f"loop5-{i}", relabel(table, shuffled(LOOP_ORDER))))
    return items


def labelled_copies(table: Table) -> int:
    """How many distinct tables on the same elements are isomorphic to this one."""
    n = len(table)
    return len({relabel(table, perm) for perm in itertools.permutations(range(n))})


def bump_trials(seed: int, count: int) -> list[tuple[tuple[float, ...], tuple[float, float]]]:
    """Seeded (bump centre and radii, group element) pairs for the integrate probe."""
    rng = random.Random(seed)
    return [
        (
            (rng.uniform(1.0, 5.0), rng.uniform(-3.0, 3.0), rng.uniform(0.2, 0.5), rng.uniform(0.5, 1.5)),
            (rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0)),
        )
        for _ in range(count)
    ]


def scan_probe_rows(seed: int) -> list[tuple[int, ...]]:
    """A seeded subset of order-5 first rows, for the per-square probes of the scan layers."""
    rows = list(first_rows(SCAN_ORDER))
    return sorted(random.Random(seed).sample(rows, SCAN_PROBE_ROWS))
