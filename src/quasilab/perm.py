"""Permutations of {0, ..., n-1} in image form.

Composition follows the operator convention (s @ t)(x) = s(t(x)): the
right factor acts first.  Every Perm is validated when it is made.  Hot
loops elsewhere in the package work on raw image tuples, such as the rows
and columns of a Latin table, and only wrap them in Perm at API
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter


class DegreeMismatch(ValueError):
    """Operands act on different numbers of points."""


@dataclass(frozen=True)
class Perm:
    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation: {self.images}")

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __matmul__(self, other: "Perm") -> "Perm":
        """Compose: (self @ other)(x) = self(other(x))."""
        if len(self.images) != len(other.images):
            raise DegreeMismatch(
                f"degree {len(self.images)} vs {len(other.images)}"
            )
        return Perm(compose_images(self.images, other.images))

    def inverse(self) -> "Perm":
        return Perm(invert_images(self.images))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))


def compose_images(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """Raw-tuple composition, right factor first; no validation.

    itemgetter(*t)(s) is the fast form, but returns a scalar for one index.
    """
    if len(t) > 1:
        return itemgetter(*t)(s)
    return tuple(s[i] for i in t)


def invert_images(s: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(s)
    for i, j in enumerate(s):
        inv[j] = i
    return tuple(inv)


def orbits(gens, degree: int) -> list[tuple[int, ...]]:
    """Orbit partition of range(degree) under raw image tuples.

    Each orbit is a sorted tuple, and orbits come ordered by their largest
    point.  Only the tests rely on that order: tests/test_measures.py
    compares the orbit indicators, in order, with the free columns of the
    difference system mu[i] - mu[g(i)] = 0, whose solutions are the
    functions constant on orbits.
    """
    seen = [False] * degree
    parts = []
    for start in range(degree):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for pt in orbit:  # grows while it is walked: a breadth-first closure
            for g in gens:
                img = g[pt]
                if not seen[img]:
                    seen[img] = True
                    orbit.append(img)
        parts.append(tuple(sorted(orbit)))
    return sorted(parts, key=lambda part: part[-1])
