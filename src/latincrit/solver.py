"""Completion counting and unique-completability for partial Latin squares.

Backtracking over a flat row-major grid (0 = empty) and six bitmask
tables: the symbols in each row and column (`row_used`, `col_used`), the
rows and columns holding each symbol (`sym_rows`, `sym_cols`), and the
empty cells of each row and column (`row_empty`, `col_empty`).  So every
rule is a bit test: cell (r, c) may take `~(row_used[r] | col_used[c])`,
and symbol v may go in row r at `row_empty[r] & ~sym_cols[v]`.

Each node first closes under forced moves: naked singles (one candidate
left in a cell) and hidden singles in rows and columns (one cell left
for a symbol).  Propagation keeps bit masks of dirty rows, columns and
symbols, those changed by a placement since the last fixed point, and
re-checks only the rules that read them, one dirty item at a time.  The
root starts with everything dirty; a branch starts with the row, column
and symbol of the one placement that made it, since its parent was
already at a fixed point.  Both rules only ever fire or fail more as
cells fill, so every firing order reaches the same closure, and fails
exactly when another order does.  The node then branches on a cell with
the fewest candidates, ties broken in row-major order, symbols
ascending, each branch on copies of the state, so counts, the capped
flag, and witnesses are deterministic.

Uncapped counts of order at most `ROW_COUNT_MAX_ORDER` do not search.
They close the root under forced moves once, count with the row dynamic
program `enumeration._count_by_rows`, and take as witnesses the first
two completions of the row-major filler, which are the two smallest in
text order.  Capped counts and larger orders search, so the witnesses of
a capped count still depend on the search order."""

from __future__ import annotations

from dataclasses import dataclass

from .core import LatinSquare, PartialLatinSquare
from .enumeration import _count_by_rows, _row_major_fills

FIXED_POINT = "fixed-point"
CONTRADICTION = "contradiction"

# Uncapped counts up to this order use the row dynamic program; larger
# orders search.  Measured against the search on 100-175 grids per order
# (critical sets, random hole fractions, grids with no completion; 2-vCPU
# Xeon, Python 3.11): at orders 5-7 the program took 6-7x less time in
# total and lost at most 3 ms on any grid.  At order 8 it lost up to
# 18 ms on a grid and 3x in total on critical sets, and at order 10 up
# to 1.4 s on a critical set.
ROW_COUNT_MAX_ORDER = 7


class NotUniqueError(ValueError):
    """unique_completion was called on a square with 0 or >= 2 completions."""

    def __init__(self, count: int):
        self.count = count
        detail = "no completion" if count == 0 else "more than one completion"
        super().__init__(f"square has {detail}")


@dataclass(frozen=True)
class CompletionReport:
    """count is exact unless capped; witnesses are up to two distinct
    completions.  Uncapped, they are the two smallest completions in text
    order (by serialized form); capped, the two smallest among those the
    deterministic search reached before the cap."""

    count: int
    capped: bool
    witnesses: tuple[LatinSquare, ...]


def _propagate_flat(n, cells, row_used, col_used, sym_rows, sym_cols, row_empty, col_empty,
                    rows=-1, cols=-1, syms=-1) -> bool:
    """Fill forced cells in place until no rule fires, updating every
    table.  Returns False on contradiction: an empty cell with no
    candidate, or a missing symbol with no admissible cell in its row or
    column.

    `rows`, `cols` and `syms` are bit masks of the dirty lines and
    symbols (symbol v at bit v - 1): those changed since the grid was
    last at a fixed point.  The default -1 marks everything dirty.  A
    cell's candidates change only with its row and column, and a
    symbol's admissible cells in a line only with that line and that
    symbol, so only dirty items need checking.  The loop takes one dirty
    item at a time and clears it: the lowest dirty row, else the lowest
    dirty column, else the lowest dirty symbol.  A line is checked for
    naked singles in all its empty cells and for hidden singles of all
    its missing symbols; a symbol for hidden singles in every line that
    misses it.  Each placement marks its row, column and symbol dirty
    again, so an item is always checked after its last change, and the
    loop stops when nothing is dirty.

    The firing order does not change the outcome.  A move that fires on
    a grid still fires on any larger grid reached by sound moves, unless
    that grid already holds it or fails at the same cell or line, and a
    failure stays a failure.  So any two orders place the same moves:
    both end at the same fixed point, or both fail.  Where propagation
    fails, the grid holds whatever was placed before it stopped.
    Placements inline `_place`: a call per forced cell costs about 8% of
    counting time."""
    full = (1 << n) - 1
    rows &= full
    cols &= full
    syms &= full
    while rows | cols | syms:
        if rows | cols:
            by_col = not rows
            if by_col:
                lbit = cols & -cols
                cols ^= lbit
            else:
                lbit = rows & -rows
                rows ^= lbit
            line = lbit.bit_length() - 1
            used, empty, holders = ((col_used, col_empty, sym_rows) if by_col
                                    else (row_used, row_empty, sym_cols))
            # naked singles in the line's empty cells
            spots = empty[line]
            while spots:
                sbit = spots & -spots
                spots ^= sbit
                spot = sbit.bit_length() - 1
                r, c = (spot, line) if by_col else (line, spot)
                cand = full & ~(row_used[r] | col_used[c])
                if cand == 0:
                    return False
                if cand & (cand - 1) == 0:
                    v = cand.bit_length()
                    cells[r * n + c] = v
                    row_used[r] |= cand
                    col_used[c] |= cand
                    sym_rows[v] |= 1 << r
                    sym_cols[v] |= 1 << c
                    row_empty[r] ^= 1 << c
                    col_empty[c] ^= 1 << r
                    rows |= 1 << r
                    cols |= 1 << c
                    syms |= cand
            # hidden singles of the line's missing symbols
            missing = full & ~used[line]
            while missing:
                bit = missing & -missing
                missing ^= bit
                v = bit.bit_length()
                spots = empty[line] & ~holders[v]
                if spots == 0:
                    return False
                if spots & (spots - 1) == 0:
                    spot = spots.bit_length() - 1
                    r, c = (spot, line) if by_col else (line, spot)
                    cells[r * n + c] = v
                    row_used[r] |= bit
                    col_used[c] |= bit
                    sym_rows[v] |= 1 << r
                    sym_cols[v] |= 1 << c
                    row_empty[r] ^= 1 << c
                    col_empty[c] ^= 1 << r
                    rows |= 1 << r
                    cols |= 1 << c
                    syms |= bit
        else:
            bit = syms & -syms
            syms ^= bit
            v = bit.bit_length()
            # hidden singles of symbol v in each row, then each column, missing it
            for by_col in (False, True):
                lines, empty, holders = ((full & ~sym_cols[v], col_empty, sym_rows) if by_col
                                         else (full & ~sym_rows[v], row_empty, sym_cols))
                while lines:
                    lbit = lines & -lines
                    lines ^= lbit
                    line = lbit.bit_length() - 1
                    spots = empty[line] & ~holders[v]
                    if spots == 0:
                        return False
                    if spots & (spots - 1) == 0:
                        spot = spots.bit_length() - 1
                        r, c = (spot, line) if by_col else (line, spot)
                        cells[r * n + c] = v
                        row_used[r] |= bit
                        col_used[c] |= bit
                        sym_rows[v] |= 1 << r
                        sym_cols[v] |= 1 << c
                        row_empty[r] ^= 1 << c
                        col_empty[c] ^= 1 << r
                        rows |= 1 << r
                        cols |= 1 << c
                        syms |= bit
    return True


def _place(n: int, state: list, r: int, c: int, v: int):
    """Write symbol v into the empty cell (r, c) of the grid and tables."""
    cells, row_used, col_used, sym_rows, sym_cols, row_empty, col_empty = state
    cells[r * n + c] = v
    row_used[r] |= 1 << (v - 1)
    col_used[c] |= 1 << (v - 1)
    sym_rows[v] |= 1 << r
    sym_cols[v] |= 1 << c
    row_empty[r] ^= 1 << c
    col_empty[c] ^= 1 << r


def _state(n: int, cells) -> list:
    """A copy of the flat grid `cells` and the six tables that describe it."""
    full = (1 << n) - 1
    cells = list(cells)
    row_used, col_used = [0] * n, [0] * n
    sym_rows, sym_cols = [0] * (n + 1), [0] * (n + 1)
    row_empty, col_empty = [full] * n, [full] * n
    for r in range(n):
        rbit = 1 << r
        for c, v in enumerate(cells[r * n : (r + 1) * n]):
            if v:
                bit, cbit = 1 << (v - 1), 1 << c
                row_used[r] |= bit
                col_used[c] |= bit
                sym_rows[v] |= rbit
                sym_cols[v] |= cbit
                row_empty[r] ^= cbit
                col_empty[c] ^= rbit
    return [cells, row_used, col_used, sym_rows, sym_cols, row_empty, col_empty]


class _Counter:
    """Counts completions up to an optional cap, keeping the two
    completions whose serialized text is smallest among those seen."""

    __slots__ = ("n", "cap", "count", "best", "text_rank")

    def __init__(self, n: int, cap):
        self.n = n
        self.cap = cap
        self.count = 0
        self.best = []  # [(key, cells tuple)], at most 2, sorted
        # Keys order like serialized text, whose separators sort below the
        # digits: symbols compare as strings, so from n = 10 on "10" < "2".
        self.text_rank = None if n <= 9 else {v: k for k, v in enumerate(sorted(range(1, n + 1), key=str))}

    def record(self, cells: list):
        self.count += 1
        witness = tuple(cells)
        rank = self.text_rank
        key = witness if rank is None else tuple([rank[v] for v in cells])
        best = self.best
        if len(best) < 2:
            best.append((key, witness))
            best.sort()
        elif key < best[1][0]:
            best[1] = (key, witness)
            best.sort()

    def search(self, state: list, rows=-1, cols=-1, syms=-1):
        n = self.n
        if not _propagate_flat(n, *state, rows, cols, syms):
            return
        cells, row_used, col_used, _, _, row_empty, _ = state
        full = (1 << n) - 1
        best_r = best_c = -1
        best_cand = 0
        best_width = n + 1
        for r in range(n):
            empty = row_empty[r]
            while empty:
                cbit = empty & -empty
                empty ^= cbit
                c = cbit.bit_length() - 1
                cand = full & ~(row_used[r] | col_used[c])
                width = cand.bit_count()
                if width < best_width:
                    best_r, best_c, best_cand, best_width = r, c, cand, width
                    if width == 2:  # propagation leaves no narrower cell
                        break
            if best_width == 2:
                break
        if best_r < 0:
            self.record(cells)
            return
        cand = best_cand
        while cand:
            bit = cand & -cand
            cand ^= bit
            branch = list(map(list.copy, state))
            _place(n, branch, best_r, best_c, bit.bit_length())
            # the parent is at a fixed point: only this placement is new
            self.search(branch, 1 << best_r, 1 << best_c, bit)
            if self.cap is not None and self.count >= self.cap:
                return


def _search_count(n: int, cells: list, cap) -> tuple[int, list]:
    """The min-width search on a flat grid (0 = empty).  Returns the count
    (saturated at cap) and up to two witness grids as flat tuples."""
    counter = _Counter(n, cap)
    counter.search(_state(n, cells))
    return counter.count, [w for _, w in counter.best]


def _count_flat(n: int, cells: list, cap) -> tuple[int, list]:
    """Core counting on a flat grid (0 = empty); returns what
    `_search_count` returns.  Uncapped counts of order <=
    ROW_COUNT_MAX_ORDER take the count from the row dynamic program and
    the witnesses from the row-major filler: it tries symbols in
    ascending order, so it yields completions in row-major lexicographic
    order, which is text order for n <= 9."""
    if cap is not None or n > ROW_COUNT_MAX_ORDER:
        return _search_count(n, cells, cap)
    state = _state(n, cells)
    if not _propagate_flat(n, *state):
        return 0, []
    cells = state[0]
    count = _count_by_rows(n, cells)
    fills = _row_major_fills(n, cells)
    return count, [tuple(next(fills)) for _ in range(min(count, 2))]


def propagate(p: PartialLatinSquare) -> tuple[PartialLatinSquare, str]:
    """Closure of `p` under forced moves, with FIXED_POINT or
    CONTRADICTION status.  The completion set is unchanged either way.
    On a contradiction the grid is wherever propagation stopped, which
    depends on the order rules fire in; a fixed point does not."""
    n = p.order
    state = _state(n, [v for row in p.grid for v in row])
    ok = _propagate_flat(n, *state)
    cells = state[0]
    result = PartialLatinSquare([cells[r * n : (r + 1) * n] for r in range(n)])
    return result, (FIXED_POINT if ok else CONTRADICTION)


def count_completions(p: PartialLatinSquare, cap: int | None = None) -> CompletionReport:
    """Number of Latin squares extending `p`, exact if below `cap`
    (None = unbounded), else `cap` with capped=True."""
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    n = p.order
    count, flats = _count_flat(n, [v for row in p.grid for v in row], cap)
    witnesses = tuple(
        LatinSquare([flat[r * n : (r + 1) * n] for r in range(n)]) for flat in flats
    )
    return CompletionReport(count=count, capped=cap is not None and count >= cap, witnesses=witnesses)


def is_uniquely_completable(p: PartialLatinSquare) -> bool:
    return count_completions(p, cap=2).count == 1


def unique_completion(p: PartialLatinSquare) -> LatinSquare:
    """The single completion of `p`; raises NotUniqueError(0 or 2) when
    the completion count is not exactly one."""
    report = count_completions(p, cap=2)
    if report.count != 1:
        raise NotUniqueError(report.count)
    return report.witnesses[0]
