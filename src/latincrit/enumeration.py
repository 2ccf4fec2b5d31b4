"""Exhaustive enumeration and counting of small Latin squares via
reduced squares.

A reduced square has first row and first column in natural order; the
total count satisfies L(n) = n! * (n-1)! * R(n), so reduced squares are
enough and a factor n!*(n-1)! fewer.  `iter_reduced` lists them with a
row-major filler.  `count_all` does not list them: it gets R(n) from a
row-by-row dynamic program over column states, which merges the partial
squares whose columns hold the same symbols up to a swap of columns free
in exactly the same rows still to fill.  Swapping two such columns' cells
in every later row matches the completions of the two states one to one.
A later given counts only through its column's symbols, which hold it,
and its row's, which the swap leaves alone.  The last row is forced: after
n - 1 rows each free column misses one symbol, the one the row needs
there.  And relabelled, the bottom rows of a reduced square are a reduced
rectangle up to a permutation of columns, so `count_all` joins the counts
of two middle layers.  `solver` counts uncapped completions of small
orders with the same program.  Counts are exact Python integers (L(6) =
812,851,200 exceeds 32 bits).

The program reads a grid only through the six free-value tables of
`core._state`, and it and the filler walk the set bits of a mask with
`core._set_bits`.  On a partial grid it may run on a conjugate, in another
row order.  Permuting the three coordinates of every triple maps the
completions of a grid one to one onto those of its conjugate, whose
tables are the grid's in another order, and the count does not depend
on the row order.  The solver's forced-move rule reads the three axes
alike, so the conjugate of a closed grid is closed too.  The time can differ several-fold, so
from a measured number of holes on, `_layout` picks both by a layer
bound on the state sets, computed only from where the free values are
(see `_layout`); below it, choosing costs more than it saves.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from itertools import islice, permutations
from typing import Iterator, NamedTuple

from .core import _PAIRS, _ROW_AXES, LatinSquare, _set_bits, _state

# R(7) = 16,942,080 is counted in 0.28-0.47 s (best of 7; 2-vCPU Xeon, Python 3.11).
# R(8) is out of reach: after its first four rows the state sets hold 1;
# 1,642; 96,367; 367,458 states, at 82 s and 1.5 GB resident.
COUNT_MAX_ORDER = 7
# Order 6 lists 9,408 reduced squares in about half a second; order 7
# would list all 16,942,080.
LIST_MAX_ORDER = 6
# `_count_by_rows` packs a column's symbols into one byte of its state.
ROW_COUNT_MAX_ORDER = 8


class EnumerationResult(NamedTuple):
    order: int
    reduced_count: int
    total_count: int


def _row_major_fills(n: int, state: list, rng=None) -> Iterator[list]:
    """Complete the grid of the solver state `state` in place, filling
    its empty cells in row-major order and trying each one's free symbols,
    `rv[r] & cv[c]`, ascending or in an order shuffled by `rng`.  Yields
    the grid list at every completion, so callers copy what they keep.
    Consumes the state: each symbol placed or taken back is XORed into
    `rv` and `cv` only, so the other four tables go stale.  Backtracks
    over an explicit stack, so no order nests Python frames."""
    cells, _, rv, _, cv, _, _ = state
    bits = _set_bits(n)
    free = [divmod(idx, n) for idx, v in enumerate(cells) if not v]
    if not free:
        yield cells
        return
    last = len(free) - 1
    stack = []  # stack[d]: the symbols (0-based) still to try at free[d], for d < depth
    depth = 0
    while True:  # enter free[depth]
        r, c = free[depth]
        left = list(bits[rv[r] & cv[c]])
        if rng is not None:
            rng.shuffle(left)
        left.reverse()  # pop() takes them in order
        while True:  # try the next symbol at free[depth], or back up
            if left:
                v = left.pop()
                cells[r * n + c] = v + 1
                bit = 1 << v
                rv[r] ^= bit
                cv[c] ^= bit
                if depth < last:
                    stack.append(left)
                    depth += 1
                    break
                yield cells
            else:
                cells[r * n + c] = 0
                if not depth:
                    return
                left = stack.pop()
                depth -= 1
                r, c = free[depth]
                bit = 1 << (cells[r * n + c] - 1)
            # take back `bit`: the completed last cell, or the one backed up to
            rv[r] ^= bit
            cv[c] ^= bit


# The last free cells of a row, up to this many, are filled together from a
# table of the placements of the row's remaining symbols, built once per
# remaining set.  On the 240 grids of the `count` benchmark, closed under
# forced moves and counted with the layout chooser, the program took
# 0.45 s at 3, against 0.55 s at 2 and 0.48 s at 4; R(6) took 2.1 ms at
# 3 and 4 and 2.2 ms at 2, and R(7) 0.24 s, against 0.31 and 0.26 s
# (best of 5 rounds, interleaved; 2-vCPU Xeon, Python 3.11).
_TAIL_CELLS = 3


def _row_layers(n: int, tables: list, rows=None) -> Iterator[dict]:
    """The row program's walk over the grid whose six free-value tables,
    `core._state(n, cells)[1:]`, are `tables`; the grid must repeat no
    symbol in a row or column.  Yields the column states after 0, 1, ...,
    n - 1 of its rows, taken in the order `rows`, each a dict from state
    to the number of ways to reach it.  The last layer is unmerged.

    Once some rows are filled, the rest of the square depends only on the
    symbols in each column, so fillings that reach the same state merge.
    Columns free in exactly the same rows still to fill form a group.
    Swapping two of them in every later row maps the completions of a
    state onto those of the state with their masks swapped.  So each
    group's masks are sorted, and such states merge.  A state is one int,
    a byte per column (so n <= ROW_COUNT_MAX_ORDER), in an order that
    makes each group one run of bytes.  The masks start with every given
    symbol of their column, so a free cell never takes a symbol given
    elsewhere in its column.  By default rows go fewest free cells first,
    which keeps the early state sets small; the count does not depend on
    the order."""
    if n > ROW_COUNT_MAX_ORDER:
        raise ValueError(f"the row program packs a column into one byte: orders 1..{ROW_COUNT_MAX_ORDER}, "
                         f"got {n}")
    full = (1 << n) - 1
    bits = _set_bits(n)
    rc, rv, cr, cv = tables[:4]
    if rows is None:
        rows = sorted(range(n), key=lambda r: rc[r].bit_count())
    # bit k of where[c]: column c is free in rows[k]
    where = [sum(1 << k for k, r in enumerate(rows) if cr[c] >> r & 1) for c in range(n)]
    columns = sorted(range(n), key=where.__getitem__)  # in this order every group is a run
    row_given = [full ^ m for m in rv]
    start = sum((full ^ cv[c]) << 8 * p for p, c in enumerate(columns))
    free = [[8 * p for p, c in enumerate(columns) if rc[r] >> c & 1] for r in range(n)]  # bit offsets
    states = {start: 1}
    yield states
    for done, r in enumerate(rows[:-1], 1):
        head, tail = free[r][:-_TAIL_CELLS], free[r][-_TAIL_CELLS:]
        placements = {}  # row mask after `head` -> the remaining symbols laid out over `tail`
        reached = defaultdict(int)
        for state, ways in states.items():
            partial = [(row_given[r], state)]  # (row mask, state) per filling of `head` so far
            for shift in head:
                grown = []
                for used, cols in partial:
                    for k in bits[full & ~(used | cols >> shift)]:
                        grown.append((used | 1 << k, cols | 1 << (k + shift)))
                partial = grown
            for used, cols in partial:
                fits = placements.get(used)
                if fits is None:
                    rest = [1 << k for k in bits[full ^ used]]
                    fits = placements[used] = [
                        sum(bit << shift for bit, shift in zip(order, tail)) for order in permutations(rest)
                    ]
                for fit in fits:
                    if not fit & cols:
                        reached[cols | fit] += ways
        states = reached
        ahead = [where[c] >> done for c in columns]  # where each column is free in the rows left
        ends = [p for p in range(1, n) if ahead[p] != ahead[p - 1]] + [n]
        groups = [(a, b) for a, b in zip([0] + ends, ends) if b - a > 1 and ahead[a]]
        if groups and done < n - 1:
            merged = defaultdict(int)
            for state, ways in states.items():
                masks = state.to_bytes(n, "little")
                for a, b in groups:
                    masks = masks[:a] + bytes(sorted(masks[a:b])) + masks[b:]
                merged[int.from_bytes(masks, "little")] += ways
            states = merged
        yield states


# From this many holes on the layout chooser of `_count_by_rows` pays: it
# takes 50-120 us, and the row program runs on the grid as given below it
# and at orders not listed.  Counted on grids closed under forced moves
# (the `count` benchmark's and random ones; best of 5, 2-vCPU Xeon,
# Python 3.11), chooser plus program against the program alone took
# 0.63-0.87x from 26 holes on at order 6 and 1.02-1.26x at 20-25, at
# order 7 0.62-1.01x from 30 on and 1.06-1.26x at 23-29, at order 8
# 0.21-1.07x from 30 on and 0.98-1.5x at 25-29.  At order 5 it never paid.
_LAYOUT_MIN_HOLES = {6: 26, 7: 30, 8: 30}


def _layout(n: int, tables: list) -> tuple[tuple, list]:
    """The conjugate (an axis order for `_conjugate`) and the row order
    that the row program should run the grid of `tables` in, chosen by a
    layer bound read only from where the free values are.

    Take the values of axis X as rows and the other two, Y < Z, as
    columns and symbols.  After the first k rows of a row order are
    filled, the state is the set of (column, symbol) pairs they hold, and its number
    is at most both prod_c C(m_c, f_c(k)) and prod_s C(M_s, d_s(k)):
    m_c is the number of free cells of column c and f_c(k) the number of
    them in the first k rows, M_s the number of rows missing symbol s and
    d_s(k) the number of those among the first k rows.  The layer bound
    sums the lesser product over k = 1..n-1.  Each m and f is a bit count
    of the six tables free[X][W][a], the values of axis W in no triple
    with value a of axis X.  The axis with the least bound, rows fewest
    free cells first as `_row_layers` takes them, is chosen (ties to the
    lower axis; the grid itself is axis 0).  Its rows are then ordered
    again: still fewest free cells first, but among rows with equally
    many, each next row is the one that leaves the column product least.
    That order is kept if its bound is less.  Orders chosen by the bound
    alone, free counts ignored, were two to three times as slow as rows
    fewest free first on some order-8 grids."""
    free = dict(zip(_PAIRS, tables))

    def product(w: int, x: int, done: int) -> int:  # over the values of axis w
        return math.prod([math.comb(m.bit_count(), (m & done).bit_count()) for m in free[w, x]])

    def bound(x: int, rows: list) -> int:
        done = total = 0
        for a in rows[:-1]:
            done |= 1 << a
            total += min(product(w, x, done) for w in range(3) if w != x)
        return total

    fewest = [sorted(range(n), key=lambda a: free[x, y][a].bit_count()) for x, y, _ in _ROW_AXES]
    costs = [bound(x, fewest[x]) for x in range(3)]
    x = costs.index(min(costs))
    y = _ROW_AXES[x][1]
    left = fewest[x].copy()
    rows = []
    done = 0
    while left:
        width = free[x, y][left[0]].bit_count()
        a = min([a for a in left if free[x, y][a].bit_count() == width],
                key=lambda a: product(y, x, done | 1 << a))
        left.remove(a)
        rows.append(a)
        done |= 1 << a
    return _ROW_AXES[x], rows if bound(x, rows) < costs[x] else fewest[x]


def _conjugate(tables: list, axes: tuple) -> list:
    """The tables, shared, of the conjugate that reads every triple of the
    grid of `tables` in the axis order `axes`: its axis i is the grid's
    axis axes[i], so its free[X][Y] is the grid's free[axes[X]][axes[Y]]."""
    return [tables[_PAIRS.index((axes[x], axes[y]))] for x, y in _PAIRS]


def _count_by_rows(n: int, tables: list) -> int:
    """Number of completions of the grid whose six free-value tables are
    `tables`, which must repeat no symbol in a row or column: the ways
    summed over the states after n - 1 rows, each of which has one
    completion.  Each filled row holds every symbol once, and each mask
    holds its column's givens, so a symbol given in the last row is in all
    n masks and any other in n - 1.  So a column given in that row is
    full, and each free one misses exactly one symbol: together, once
    each, the symbols the row lacks.

    The program may run on a conjugate instead, in another row order,
    with the same count (see the module docstring).  With at least
    `_LAYOUT_MIN_HOLES[n]` holes `_layout` chooses both by its layer bound
    and `_conjugate` reindexes the tables; with fewer, choosing costs more
    than it saves."""
    rows = None
    if n in _LAYOUT_MIN_HOLES and sum([m.bit_count() for m in tables[0]]) >= _LAYOUT_MIN_HOLES[n]:
        axes, rows = _layout(n, tables)
        tables = _conjugate(tables, axes)
    for states in _row_layers(n, tables, rows):
        pass
    return sum(states.values())


def _reduced_border(n: int) -> list:
    """Flat n x n grid holding only the first row and column, 1..n."""
    cells = [0] * (n * n)
    for k in range(n):
        cells[k] = cells[k * n] = k + 1
    return cells


def iter_reduced(n: int) -> Iterator[LatinSquare]:
    """All Latin squares of order n with first row and column 1..n, each
    exactly once, in lexicographic row-major order.  An order outside
    1..LIST_MAX_ORDER raises here, not at the first square."""
    if not 1 <= n <= LIST_MAX_ORDER:
        raise ValueError(f"listing reduced squares supports orders 1..{LIST_MAX_ORDER}, got {n}")
    return (LatinSquare.from_cells(n, cells) for cells in _row_major_fills(n, _state(n, _reduced_border(n))))


def count_all(n: int) -> EnumerationResult:
    """Exact R(n), and L(n) = n! * (n-1)! * R(n).  From order 4 on (below,
    the full walk is faster), the row program walks the reduced border only
    to layers k = ceil(n/2) and n - k and joins them: R(n) = sum over O in
    layer k of W_k(O) * |Stab(P)| * W_{n-k}(P), where W_j is layer j's count
    and P is the sorted masks of columns 2..n of O, complemented and rotated
    down by k.  Rows k+1..n hold k+1..n in column 1, so relabelled, the
    bottom of a square is an (n-k)-row rectangle with column 1 in order and
    column sets P; permuting columns 2..n puts its first row in order.  The
    |Stab(P)| permutations of equal masks in P give distinct bottoms."""
    if not 1 <= n <= COUNT_MAX_ORDER:
        raise ValueError(f"counting supports orders 1..{COUNT_MAX_ORDER}, got {n}")
    tables = _state(n, _reduced_border(n))[1:]
    if n < 4:  # the join needs layer 1, so n >= 2, but no merged layer k; at n = 2, 3 it is slower
        reduced = _count_by_rows(n, tables)
    else:
        k = (n + 1) // 2
        layers = list(islice(_row_layers(n, tables), k + 1))
        full = (1 << n) - 1
        flip = [((m ^ full) >> k | (m ^ full) << (n - k)) & full for m in range(full + 1)]
        reduced = 0
        for state, ways in layers[k].items():
            rest = sorted(map(flip.__getitem__, state.to_bytes(n, "little")[1:]))
            stab = math.prod(map(math.factorial, Counter(rest).values())) if len(set(rest)) < n - 1 else 1
            reduced += ways * stab * layers[n - k].get(int.from_bytes(bytes([full, *rest]), "little"), 0)
    total = math.factorial(n) * math.factorial(n - 1) * reduced
    return EnumerationResult(order=n, reduced_count=reduced, total_count=total)
