"""Naive reference enumerator, independent of the package solver.

Cell-by-cell exhaustive search in fixed row-major order with set-based
candidate scans: no bitmasks, no propagation, no cell-choice heuristic.
Slow but obviously correct; used to derive and cross-check expected
values for the real solver and enumerator.
"""

from types import SimpleNamespace


def naive_completions(p, limit=None):
    """All Latin squares extending partial square `p`, as tuples of row
    tuples, in row-major lexicographic order.  Stops early at `limit`."""
    n = p.order
    grid = [list(row) for row in p.grid]
    found = []

    def candidates(r, c):
        used = set(grid[r]) | {grid[i][c] for i in range(n)}
        return [s for s in range(1, n + 1) if s not in used]

    def fill(idx):
        if limit is not None and len(found) >= limit:
            return
        if idx == n * n:
            found.append(tuple(tuple(row) for row in grid))
            return
        r, c = divmod(idx, n)
        if grid[r][c] != 0:
            fill(idx + 1)
            return
        for s in candidates(r, c):
            grid[r][c] = s
            fill(idx + 1)
            grid[r][c] = 0

    fill(0)
    return found


def naive_count(p, limit=None):
    return len(naive_completions(p, limit))


def naive_is_latin(rows):
    """Row/column permutation check by sets, independent of core's checks."""
    n = len(rows)
    want = set(range(1, n + 1))
    return all(set(row) == want for row in rows) and all(
        {rows[i][j] for i in range(n)} == want for j in range(n)
    )


def naive_critical_sets(square):
    """Every critical set inside complete square `square`, as row-major
    tuples of 1-indexed (row, col, sym): the subsets with exactly one
    completion none of whose one-smaller subsets has exactly one.  Scans
    all 2^(n^2) subsets; each is checked with naive_count."""
    n = square.order
    cells = [(r, c, square.grid[r][c]) for r in range(n) for c in range(n)]

    def unique(mask):
        grid = [[0] * n for _ in range(n)]
        for k, (r, c, s) in enumerate(cells):
            if mask >> k & 1:
                grid[r][c] = s
        return naive_count(SimpleNamespace(order=n, grid=grid), limit=2) == 1

    uc = [unique(mask) for mask in range(1 << len(cells))]
    return {
        tuple((r + 1, c + 1, s) for k, (r, c, s) in enumerate(cells) if mask >> k & 1)
        for mask in range(1 << len(cells))
        if uc[mask] and not any(uc[mask ^ 1 << k] for k in range(len(cells)) if mask >> k & 1)
    }
