"""Naive reference enumerator and propagation, independent of the package
solver.

Cell-by-cell exhaustive search in fixed row-major order with set-based
candidate scans: no bitmasks, no propagation, no cell-choice heuristic.
Propagation is full sweeps over sets.  Slow but obviously correct; used
to derive and cross-check expected values for the real solver and
enumerator.
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


def naive_propagate(p):
    """Closure of partial square `p` under forced moves: (grid as tuples of
    row tuples, "fixed-point" or "contradiction").  Each sweep visits the
    empty cells in row-major order for naked singles (one candidate
    left), then the rows, then the columns for hidden singles (one cell
    left for a missing symbol, symbols ascending), placing each forced
    symbol at once; sweeps repeat until one places nothing.  A cell with
    no candidate, or a missing symbol with no cell, is a contradiction."""
    n = p.order
    grid = [list(row) for row in p.grid]
    symbols = set(range(1, n + 1))

    def free(r, c):
        return symbols - set(grid[r]) - {grid[i][c] for i in range(n)}

    def result(status):
        return tuple(tuple(row) for row in grid), status

    changed = True
    while changed:
        changed = False
        for r in range(n):
            for c in range(n):
                if grid[r][c] == 0:
                    cand = free(r, c)
                    if not cand:
                        return result("contradiction")
                    if len(cand) == 1:
                        grid[r][c] = cand.pop()
                        changed = True
        for line_cells in ([[(r, c) for c in range(n)] for r in range(n)],
                           [[(r, c) for r in range(n)] for c in range(n)]):
            for line in line_cells:
                for v in sorted(symbols - {grid[r][c] for r, c in line}):
                    spots = [(r, c) for r, c in line if grid[r][c] == 0 and v in free(r, c)]
                    if not spots:
                        return result("contradiction")
                    if len(spots) == 1:
                        r, c = spots[0]
                        grid[r][c] = v
                        changed = True
    return result("fixed-point")


def conjugate(n, cells, axes):
    """The conjugate of the flat row-major partial square `cells` (0 =
    empty) that reads every triple's coordinates in the order `axes`, a
    permutation of (0, 1, 2) = (row, column, symbol): triple t becomes
    (t[axes[0]], t[axes[1]], t[axes[2]]).  (1, 0, 2) is the transpose."""
    out = [0] * (n * n)
    for idx, v in enumerate(cells):
        if v:
            t = (idx // n, idx % n, v - 1)
            r, c, s = (t[k] for k in axes)
            out[r * n + c] = s + 1
    return out


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


def naive_minimal_transversals(edges, n_vertices):
    """Every minimal transversal of the hypergraph on vertices
    0..n_vertices-1 whose edges are the vertex bitmasks `edges`, as a set
    of bitmasks: the vertex sets that meet every edge and none of whose
    one-smaller subsets does.  Scans all 2^n_vertices subsets."""
    meets_all = [all(mask & e for e in edges) for mask in range(1 << n_vertices)]
    return {
        mask
        for mask in range(1 << n_vertices)
        if meets_all[mask] and not any(meets_all[mask ^ 1 << k] for k in range(n_vertices) if mask >> k & 1)
    }
