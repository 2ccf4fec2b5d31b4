"""Completion counting and unique-completability for partial Latin squares.

A partial Latin square is a set of triples (row, column, symbol) in
which any two coordinates fix the third.  Backtracking keeps the solver
state of `core._state`: a flat row-major grid (0 = empty) and, for each
ordered pair of axes (X, Y), a table `free[X][Y]` of bit masks, where
`free[X][Y][a]` holds the values of Y that are in no triple with value a
of X.  The tables are named by their axes, r (row), c (column) and v
(symbol): `rv[r]` holds the symbols missing from row r, `vr[v]` the rows
that lack symbol v, and `rc[r]` the empty cells of row r.  Symbols are
0-based in the tables (symbol v at bit v - 1).  Every rule and the
branch-cell scan read free values, so they take the tables as they are,
with no complement, and read the set bits of a mask from
`core._set_bits`.  `core._state` builds a state and `_set_cell` edits
one; propagation and the search's branch writes inline it.  Other
modules edit a state with `_set_cell` by (row, column), ask it for a
cell's free symbols with `_free_symbols` and count from it with
`_count_flat`, and take the closures of a grid minus each of its cells
from `_removal_closures`.  The row program of `enumeration` counts from
the tables, without the grid.

Each node first closes under forced moves, which are one rule read on
the three conjugates of the square: two values of two axes that are in
no triple together need a value of the third axis that is in no triple
with either.  If there is none, the node fails; if there is one, it is
placed.  On (row, column) this is a naked single, one candidate left in
a cell; on (row, symbol) and (column, symbol) a hidden single, one cell
left for a symbol in a line.  Propagation keeps bit masks of dirty rows,
columns and symbols, those in a triple placed since the last fixed
point, and takes them one axis at a time: a batch of all dirty rows,
else all dirty columns, else all dirty symbols.  It checks each value
of a batch in turn, all its pairs in one walk over its free partners on
one axis.  The root starts with every row and column dirty and no
symbol: a row's walk checks its (row, column) and (row, symbol) pairs
and a column's its (column, row) and (column, symbol) pairs, so every
pair a symbol's walk would check is already covered.  A branch starts
with the row, column and symbol of the one placement that made it,
since its parent was already at a fixed point.  The rule only ever
fires or fails more as triples are added, so every firing order, batched
or not, reaches the same closure, and fails exactly when another order
does.  The node then branches on a cell with the fewest candidates, ties
broken in row-major order, symbols ascending, depth first over an
explicit stack of open nodes, never nesting Python frames, so counts,
the capped flag, and witnesses are deterministic.

Uncapped counts of order at most `ROW_COUNT_MAX_ORDER` do not search.
They close the root under forced moves once, count from the closed
tables with the row dynamic program `enumeration._count_by_rows`, which
on a grid with many holes runs on the conjugate and in the row order its
layer bound favours, and take as witnesses the first two completions of
the row-major filler on the closed grid, which are the two smallest in
text order.  Capped counts and larger orders search, so the witnesses of
a capped count still depend on the search order."""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .core import _PAIRS, _ROW_AXES, LatinSquare, PartialLatinSquare, _set_bits, _state
from .enumeration import ROW_COUNT_MAX_ORDER, _count_by_rows, _row_major_fills

FIXED_POINT = "fixed-point"
CONTRADICTION = "contradiction"

# The dirty (rows, cols, syms) masks of a root sweep; see the module
# docstring for why no symbol needs to be dirty.
_ROOT_DIRTY = (-1, -1, 0)

# Uncapped counts up to ROW_COUNT_MAX_ORDER, every order the row dynamic
# program takes, use the program; larger orders search.  Measured against
# the search on 100-175 grids per order (critical sets, random hole
# fractions, grids with no completion; 2-vCPU Xeon, Python 3.11): at
# orders 5-7 the program took 6-7x less time in total and lost at most
# 3 ms on any grid.  At order 8, with states equal up to a swap of columns
# merged and the layout chooser, 100 grids (52 critical sets from
# minimize_uc, 33 with 24-44 holes, 15 with no completion) took it
# 0.45-0.59 s against 2.4-3.2 s, and it lost at most 31-53 ms on a grid, a
# critical set whose witness fill takes most of that.  Without the chooser
# the program took 0.38-0.39 s there: one grid with 42 holes went from
# 73 to 198 ms.  At order 10 it lost up to 1.4 s on a critical set.


class NotUniqueError(ValueError):
    """unique_completion was called on a square with 0 or >= 2 completions."""

    def __init__(self, count: int):
        self.count = count
        detail = "no completion" if count == 0 else "more than one completion"
        super().__init__(f"square has {detail}")


class CompletionReport(NamedTuple):
    """count is exact unless capped; witnesses are up to two distinct
    completions.  Uncapped, they are the two smallest completions in text
    order (by serialized form); capped, the two smallest among those the
    deterministic search reached before the cap."""

    count: int
    capped: bool
    witnesses: tuple[LatinSquare, ...]


# Per axis X, with Y < Z the other two: the positions of free[X][Y],
# free[X][Z], free[Y][Z] and free[Z][Y] among the tables, then Y and Z.
_AXES = tuple(
    (_PAIRS.index((x, y)), _PAIRS.index((x, z)), _PAIRS.index((y, z)), _PAIRS.index((z, y)), y, z)
    for x, y, z in _ROW_AXES)

def _propagate_flat(n, cells, rc, rv, cr, cv, vr, vc, rows=-1, cols=-1, syms=0) -> bool:
    """Fill forced cells in place until no rule fires, updating every
    table.  Returns False on contradiction: two values of two axes, in
    no triple together, that no value of the third axis can join.

    `rows`, `cols` and `syms` are bit masks of the dirty values of each
    axis (symbol v at bit v - 1): those in a triple placed since the grid
    was last at a fixed point; -1 marks a whole axis dirty.  The rule for
    a pair (a, b) reads only the tables of a and of b, which change only
    with a triple holding a or b, so only pairs with a dirty member need
    checking.  The default, `_ROOT_DIRTY`, is a root sweep: every row and
    column dirty, no symbol.  Every pair holds a row or a column, and a
    value's walk checks all its pairs, so the walks of the rows and
    columns check every pair there is.  The loop takes the dirty values
    one axis at a time, as a batch that it clears: all dirty rows, else
    all dirty columns, else all dirty symbols, ascending.  Each value a of
    the batch's axis X, with Y < Z the other axes, is walked in turn, on
    the tables as they stand when its walk starts.  Both of a's rules read
    one bipartite graph: the Y values b and the Z values z in no triple
    with a, b and z joined when in no triple together.  The free tables
    hold it as it is: `free[X][Y][a]` and `free[X][Z][a]` are its two
    sides, and `free[Y][Z][b]` and `free[Z][Y][z]` the edges of b and z,
    ANDed with a side.  One walk over the b reads each one's partners m:
    none fails; one is a forced move, which takes b and z out of the
    graph; more are added to bit-sliced counters, `ones` (z met at least
    once) and `twos` (at least twice).  After the walk a z outside `ones`
    has no partner and fails, and the partners of a z outside `twos` are
    read again.  The moves are placed last, which marks their row, column
    and symbol dirty, a's among them; values a batch dirties again, on its
    own axis too, go into a later batch.  The set bits of every mask the
    loop walks, the batch, the b and the z, come from `_set_bits(n)`.

    No table the walk reads changes before its moves are placed, and it
    tracks which values of a are still free, so the counts of the z are
    exact when it ends.  A move takes its z from any b walked before it,
    and a z forced after the walk its b from any z counted with it, so
    some partners may be gone.  That can hide a move or a failure, never
    make one, and a is dirty again, so it is checked anew.  The moves of
    one walk share no b and no z, and each one's three pairs were free
    when read, so placing it flips a free bit off in each of six tables.

    The firing order does not change the outcome.  A move that fires on
    a grid still fires on any larger grid reached by sound moves, unless
    that grid already holds it or fails at the same pair, and a failure
    stays a failure.  Every value in a triple placed after its last walk
    is dirty until walked again, so the loop ends only where no rule
    fires.  So any two orders, batched or one value at a time, place the
    same moves: both end at the same fixed point, or both fail.  Where
    propagation fails, the grid holds whatever was placed before it
    stopped.  The placement inlines `_set_cell`: a call per forced cell
    costs about 8% of counting time."""
    full = (1 << n) - 1
    bits = _set_bits(n)
    tables = (rc, rv, cr, cv, vr, vc)
    rows &= full
    cols &= full
    syms &= full
    t = [0, 0, 0]  # the triple being placed, by axis
    while rows | cols | syms:
        if rows:
            x, batch, rows = 0, rows, 0
        elif cols:
            x, batch, cols = 1, cols, 0
        else:
            x, batch, syms = 2, syms, 0
        xy, xz, yz, zy, y, z = _AXES[x]
        yfree_of, zfree_of, by_b, by_z = tables[xy], tables[xz], tables[yz], tables[zy]
        for a in bits[batch]:
            yfree = yfree_of[a]
            if not yfree:  # a is in a triple with every value: skip the table reads
                continue
            zfree = zfree_of[a]
            ones = twos = 0
            moves = []  # forced (b, z) pairs
            for b in bits[yfree]:
                m = zfree & by_b[b]
                if m & (m - 1):
                    twos |= ones & m
                    ones |= m
                elif m:
                    yfree ^= 1 << b
                    zfree ^= m
                    moves.append((b, m.bit_length() - 1))
                else:
                    return False
            if zfree & ~ones:
                return False
            for zi in bits[zfree & ~twos]:
                m = yfree & by_z[zi]
                if not m:
                    return False
                if m & (m - 1) == 0:
                    yfree ^= m
                    moves.append((m.bit_length() - 1, zi))
            for b, zi in moves:
                t[x] = a
                t[y] = b
                t[z] = zi
                r, c, v = t
                cells[r * n + c] = v + 1
                rbit, cbit, vbit = 1 << r, 1 << c, 1 << v
                rc[r] ^= cbit
                rv[r] ^= vbit
                cr[c] ^= rbit
                cv[c] ^= vbit
                vr[v] ^= rbit
                vc[v] ^= cbit
                rows |= rbit
                cols |= cbit
                syms |= vbit
    return True


def _set_cell(n: int, state: list, r: int, c: int, v: int) -> list:
    """Write symbol v (0 = empty) into 0-based cell (r, c) of a solver state
    in place and return it.  XOR takes the old symbol out and puts v in; a
    cell filled before and after toggles rc and cr twice, so stays filled,
    and writing a cell's own symbol back changes nothing."""
    cells, rc, rv, cr, cv, vr, vc = state
    idx = r * n + c
    rbit, cbit = 1 << r, 1 << c
    for s in (cells[idx], v):
        if s:
            sbit = 1 << (s - 1)
            rc[r] ^= cbit
            rv[r] ^= sbit
            cr[c] ^= rbit
            cv[c] ^= sbit
            vr[s - 1] ^= rbit
            vc[s - 1] ^= cbit
    cells[idx] = v
    return state


def _removal_closures(n: int, cells) -> Iterator[list]:
    """For each filled cell of the flat grid `cells`, in row-major order,
    the solver state of the grid with that cell emptied, closed under
    forced moves; the caller may consume each.  The grid must have a
    completion, so that no closure fails.

    The filled cells are halved recursively, and a block's state is the
    closure of the grid without that block, at a fixed point: the whole
    list's is the closure of the empty grid, and a half's is its
    parent's with the other half's cells written in, propagated from
    their rows, columns and symbols only.  The leaves are the cells, so
    with k of them about log2(k) + 1 states are alive at once."""
    filled = [(*divmod(idx, n), v) for idx, v in enumerate(cells) if v]

    def add(state: list, block) -> list:
        rows = cols = syms = 0
        for r, c, v in block:
            _set_cell(n, state, r, c, v)
            rows |= 1 << r
            cols |= 1 << c
            syms |= 1 << (v - 1)
        _propagate_flat(n, *state, rows, cols, syms)
        return state

    def halve(state: list, lo: int, hi: int) -> Iterator[list]:
        # state: the closure of the grid without filled[lo:hi]
        if hi - lo == 1:
            yield state
            return
        mid = (lo + hi) // 2
        yield from halve(add(list(map(list.copy, state)), filled[mid:hi]), lo, mid)
        yield from halve(add(state, filled[lo:mid]), mid, hi)

    if filled:
        empty = _state(n, [0] * (n * n))
        _propagate_flat(n, *empty)
        yield from halve(empty, 0, len(filled))


def _free_symbols(n: int, state: list, r: int, c: int) -> list[int]:
    """The symbols, ascending, in no triple with 0-based row r or column c
    of a solver state; a filled cell's own symbol is not free."""
    return [v + 1 for v in _set_bits(n)[state[2][r] & state[4][c]]]  # rv[r] & cv[c]


def _search_count(n: int, state: list, cap, dirty=_ROOT_DIRTY) -> tuple[int, list]:
    """The min-width search from a solver state, which it consumes.
    Counts completions up to cap, keeping the two whose serialized text
    is smallest among those seen.  Returns the count (saturated at cap)
    and up to two witness grids as flat tuples.  `dirty` holds the
    (rows, cols, syms) masks the root propagates from: a root sweep by
    default, none for a state already at a fixed point.  One loop takes
    the nodes from a stack of open ones, `[state, r, c, symbols left]`:
    the top one's lowest symbol left, written into a copy of its state
    (the state itself for its last), with only that placement dirty."""
    # Keys order like serialized text, whose separators sort below the
    # digits: symbols compare as strings, so from n = 10 on "10" < "2".
    # A cap-1 search keeps its one leaf and needs no order.
    text_rank = None
    if n > 9 and cap != 1:
        text_rank = {v: k for k, v in enumerate(sorted(range(1, n + 1), key=str))}
    best = []  # [(key, cells tuple)], at most 2, sorted
    count = 0
    stack = []  # open nodes, each with at least one symbol left
    bits = _set_bits(n)
    rows, cols, syms = dirty
    while True:
        if _propagate_flat(n, *state, rows, cols, syms):
            cells, rc, rv, _, cv, _, _ = state
            best_r, best_c, best_cand, best_width = -1, -1, 0, n + 1
            for r in range(n):
                free = rv[r]
                for c in bits[rc[r]]:
                    cand = free & cv[c]
                    width = cand.bit_count()
                    if width < best_width:
                        best_r, best_c, best_cand, best_width = r, c, cand, width
                        if width == 2:  # propagation leaves no narrower cell
                            break
                if best_width == 2:
                    break
            if best_r >= 0:
                stack.append([state, best_r, best_c, best_cand])
            else:
                count += 1
                witness = tuple(cells)
                key = witness if text_rank is None else tuple([text_rank[v] for v in cells])
                if len(best) < 2:
                    best.append((key, witness))
                    best.sort()
                elif key < best[1][0]:
                    best[1] = (key, witness)
                    best.sort()
                if cap is not None and count >= cap:
                    break
        if not stack:
            break
        state, r, c, cand = node = stack[-1]
        syms = cand & -cand
        if cand ^ syms:
            node[3] = cand ^ syms
            state = list(map(list.copy, state))
        else:
            stack.pop()
        # the branch cell is empty: write its symbol as propagation places
        # a move; the parent is at a fixed point, so only this one is new
        cells, rc, rv, cr, cv, vr, vc = state
        v = syms.bit_length() - 1
        rows, cols = 1 << r, 1 << c
        cells[r * n + c] = v + 1
        rc[r] ^= cols
        rv[r] ^= syms
        cr[c] ^= rows
        cv[c] ^= syms
        vr[v] ^= rows
        vc[v] ^= cols
    return count, [w for _, w in best]


def _count_flat(n: int, state: list, cap, dirty=_ROOT_DIRTY) -> tuple[int, list]:
    """Core counting from a solver state, which it consumes, its root
    propagated from the `dirty` masks; returns what `_search_count`
    returns.  Uncapped counts of order <=
    ROW_COUNT_MAX_ORDER take the count from the row dynamic program and
    the witnesses from the row-major filler: it tries symbols in ascending
    order, so it yields completions in row-major lexicographic order,
    which is text order for n <= 9."""
    if cap is not None or n > ROW_COUNT_MAX_ORDER:
        return _search_count(n, state, cap, dirty)
    if not _propagate_flat(n, *state, *dirty):
        return 0, []
    count = _count_by_rows(n, state[1:])
    fills = _row_major_fills(n, state)
    return count, [tuple(next(fills)) for _ in range(min(count, 2))]


def propagate(p: PartialLatinSquare) -> tuple[PartialLatinSquare, str]:
    """Closure of `p` under forced moves, with FIXED_POINT or
    CONTRADICTION status.  The completion set is unchanged either way.
    On a contradiction the grid is wherever propagation stopped, which
    depends on the order rules fire in; a fixed point does not."""
    n = p.order
    state = _state(n, p.cells())
    ok = _propagate_flat(n, *state)
    return PartialLatinSquare.from_cells(n, state[0]), (FIXED_POINT if ok else CONTRADICTION)


def count_completions(p: PartialLatinSquare, cap: int | None = None) -> CompletionReport:
    """Number of Latin squares extending `p`, exact if below `cap`
    (None = unbounded), else `cap` with capped=True."""
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    n = p.order
    count, flats = _count_flat(n, _state(n, p.cells()), cap)
    witnesses = tuple(LatinSquare.from_cells(n, flat) for flat in flats)
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
