"""Named constructions: back-circulant squares, the triangular critical
set of size n(n-1)/2, the classic 5x5 critical set of size 11, the
everything-but-first-row-and-column set, and seeded random squares."""

from __future__ import annotations

import random

from .core import MAX_ORDER, GridError, LatinSquare, PartialLatinSquare, _state
from .enumeration import _row_major_fills


def back_circulant(n: int) -> LatinSquare:
    """The cyclic-group table: entry ((i + j - 2) mod n) + 1 at 1-indexed
    (i, j).  Symmetric under transposition."""
    if not 1 <= n <= MAX_ORDER:
        raise GridError(f"order {n} outside supported range 1..{MAX_ORDER}")
    return LatinSquare([[(i + j) % n + 1 for j in range(n)] for i in range(n)])


def nelder_triangle(n: int) -> PartialLatinSquare:
    """Restriction of back_circulant(n) to the triangle strictly above the
    back diagonal: 0-indexed cells with i + j <= n - 2.  Size n(n-1)/2."""
    if not 2 <= n <= MAX_ORDER:
        raise GridError(f"order {n} outside supported range 2..{MAX_ORDER}")
    full = back_circulant(n)
    return PartialLatinSquare(
        [[full.grid[i][j] if i + j <= n - 2 else 0 for j in range(n)] for i in range(n)]
    )


def classic_5x5() -> PartialLatinSquare:
    """The well-known size-11 critical set in a 5x5 square, larger than
    the triangular construction's 10 for the same order."""
    return PartialLatinSquare(
        [
            [2, 0, 4, 3, 0],
            [0, 0, 1, 2, 0],
            [0, 2, 3, 1, 0],
            [3, 1, 2, 0, 0],
            [0, 0, 0, 0, 0],
        ]
    )


def all_but_first_row_col(l: LatinSquare) -> PartialLatinSquare:
    """Restriction of a complete square to rows >= 2 and columns >= 2;
    size (n-1)^2, always uniquely completable."""
    n = l.order
    return PartialLatinSquare(
        [[l.grid[i][j] if i >= 1 and j >= 1 else 0 for j in range(n)] for i in range(n)]
    )


def random_latin_square(n: int, seed: int = 0) -> LatinSquare:
    """Seeded complete square via backtracking with shuffled symbol order.

    Deterministic given (n, seed).  Sampling is NOT uniform over all
    squares of order n; good enough for randomized test suites.
    """
    if not 1 <= n <= MAX_ORDER:
        raise GridError(f"order {n} outside supported range 1..{MAX_ORDER}")
    return LatinSquare.from_cells(n, next(_row_major_fills(n, _state(n, [0] * (n * n)), random.Random(seed))))
