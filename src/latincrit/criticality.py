"""Critical set verification, greedy minimization, and exhaustive
largest-critical-set search at small orders.

A partial square is critical when it is uniquely completable and no
proper subset is.  Removing entries can only enlarge the completion set,
so minimality needs only single-entry removals.

Exhaustive search rests on trades.  The completions of a set S inside a
square L are the squares L' that agree with L on S, so S is uniquely
completable exactly when it meets the difference L minus L' for every
other square L' of the same order.  The inclusion-minimal differences
are the minimal Latin trades in L, and the critical sets of L are
exactly the minimal transversals of that trade hypergraph (Keedwell
2004).  Listing every square of order n gives the trades directly; with
each square packed into one integer, a byte per cell, a few integer
operations give the cells where two squares differ.  MMCS (Murakami &
Uno 2014) lists the transversals without calling the solver.  It reads
only the trades and lists cell bitmasks, so trades from any source plug
in.  For lcs it is a branch-and-bound: a branch with chosen cells C can
add at most min(a, u) more cells, where a counts the candidate cells
that meet an uncovered trade and u the uncovered trades, so it is
dropped when |C| + min(a, u) is below the largest size found so far.
Isotopisms (row, column and symbol permutations) carry critical sets to
critical sets of the same size, so exhaustive lcs searches one square
per isotopy class: 2 classes at order 4 and at order 5, out of 4 and 56
reduced squares.  A class is found as the orbit of one reduced square
(McKay, Meynert & Myrvold 2007), with no pairwise search.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import permutations
from typing import Iterator, NamedTuple, Sequence

from .core import LatinSquare, PartialLatinSquare, Triple, _relabel_triples, _state
from .enumeration import iter_reduced
from .solver import NotUniqueError, _count_flat, _free_symbols, _removal_closures, _set_cell

# Known largest-critical-set values for small orders.  Orders 1..5 are
# recomputed by lcs_exhaustive (order 5 in CI).  For order 6 the lower
# bound is computed: a critical set of size 18 is checked by the tests
# (tests/data/lcs_6_witness_18.txt); only "no critical set of size 19" is
# cited from the literature.
KNOWN_LCS = {1: 0, 2: 1, 3: 3, 4: 7, 5: 11, 6: 18}

# Exhaustive search lists all L(n) squares: 161,280 at order 5, but
# 812,851,200 at order 6.  _minimal_trades also needs every symbol to fit
# in 3 bits, which no order above 7 allows.
EXHAUSTIVE_MAX_ORDER = 5


class RemovalCheck(NamedTuple):
    """Outcome of deleting one entry from a uniquely completable set.
    still_unique means the entry is redundant (a minimality violation);
    otherwise second_completion witnesses the enlarged completion set."""

    triple: Triple
    still_unique: bool
    second_completion: LatinSquare | None


class CriticalityReport(NamedTuple):
    uniquely_completable: bool
    minimal: bool
    completion: LatinSquare | None
    second_completion: LatinSquare | None
    removal_checks: tuple[RemovalCheck, ...]

    @property
    def critical(self) -> bool:
        return self.uniquely_completable and self.minimal

    @property
    def violations(self) -> tuple[Triple, ...]:
        """Removable entries; empty exactly when the set is minimal."""
        return tuple(ch.triple for ch in self.removal_checks if ch.still_unique)


class LcsRecord(NamedTuple):
    order: int
    value: int
    witness_square: LatinSquare
    witness_set: PartialLatinSquare


def verify_critical(c: PartialLatinSquare) -> CriticalityReport:
    """Full criticality check: unique completability plus, per entry,
    whether its removal keeps the set uniquely completable.  The records
    wrap the flat grids of `_removal_checks`, below.

    After the cap-2 check of C, each removal check searches the closure
    of C minus its entry under forced moves, with nothing dirty.  The
    closures come from `_removal_closures`, which shares them by halving
    the entries: a block's state is the closure of C minus that block,
    its parent's with the other half's cells added and propagated from
    their rows, columns and symbols only.  That is exact.  Every set met
    lies inside C, whose one completion L completes it too, so no
    propagation fails, and a cell the closure already holds is written
    again with the same symbol.  Forced moves reach one closure in any
    firing order, and the closure of the closure of A plus B is the
    closure of A and B.  So each removal check starts from the state the
    search's own root propagation of C minus its entry would reach: the
    same tree, count and witnesses."""
    n = c.order
    completion, second, others = _removal_checks(c)

    def square(cells):
        return None if cells is None else LatinSquare.from_cells(n, cells)

    # triples() and the removal checks both follow the filled cells in row-major order
    checks = tuple(RemovalCheck(t, other is None, square(other)) for t, other in zip(c.triples(), others))
    return CriticalityReport(
        uniquely_completable=completion is not None,
        minimal=completion is not None and None not in others,
        completion=square(completion),
        second_completion=square(second),
        removal_checks=checks,
    )


def _removal_checks(c: PartialLatinSquare) -> tuple[tuple | None, tuple | None, list]:
    """The flat grids behind `verify_critical`: C's one completion (None
    unless C is uniquely completable), a second completion of C when
    there is one, and for each filled cell, in row-major order, a
    completion of C minus that entry other than C's own (None when the
    entry is redundant; no cells when C is not uniquely completable)."""
    n = c.order
    cells = c.cells()
    count, flats = _count_flat(n, _state(n, cells), 2)
    completion, second = next(flats, None), next(flats, None)
    if count != 1:
        return None, second, []
    others = []
    closures = _removal_closures(n, cells)
    for _ in range(c.size):  # one closure per filled cell; the generator is not resumed past the last
        count, flats = _count_flat(n, next(closures), 2, (0, 0, 0))  # a closed state: nothing dirty
        # count == 2 unless the entry is redundant: removal cannot empty the completion set
        others.append(None if count == 1 else next(w for w in flats if w != completion))
    return completion, None, others


def minimize_uc(
    p: PartialLatinSquare,
    removal_order: str = "row-major",
    seed: int = 0,
) -> PartialLatinSquare:
    """Greedily drop entries whose removal keeps the set uniquely
    completable, in one pass over the filled cells.  The result is a
    critical set with the same unique completion L as the input.

    removal_order "row-major" is the deterministic default; "random"
    visits the cells in an order shuffled once with the given seed, for
    heuristic portfolios.

    One pass suffices: if removing entry e from the current set C leaves
    two completions, then for any later set C' within C, C' minus e lies
    within C minus e and has at least as many completions, so an entry
    kept once is never removable later.  Each removal is decided against
    L: a completion L' other than L of C minus e differs from L at e (if
    it agreed there it would complete C, so equal L).  So C minus e is
    uniquely completable exactly when no symbol other than L's at e that
    is free in e's row and column gives a completable grid; with no such
    symbol the entry goes without a search.  Each query searches a copy
    of the current set's solver state with one cell changed.
    """
    if removal_order not in ("row-major", "random"):
        raise ValueError(f"unknown removal order {removal_order!r}")
    n = p.order
    base = _state(n, p.cells())  # the current set, kept in step by _set_cell
    count, _ = _count_flat(n, list(map(list.copy, base)), 2)
    if count != 1:
        raise NotUniqueError(count)
    triples = list(p.triples())
    if removal_order == "random":
        random.Random(seed).shuffle(triples)
    kept = []
    for t in triples:
        r, c = t.row - 1, t.col - 1
        for v in _free_symbols(n, base, r, c):
            if _count_flat(n, _set_cell(n, list(map(list.copy, base)), r, c, v), 1)[0]:
                kept.append(t)
                break
        else:
            _set_cell(n, base, r, c, 0)
    return PartialLatinSquare.from_triples(n, kept)


def _reduced_squares(n: int) -> list[LatinSquare]:
    """The reduced squares of order n, for exhaustive search, which
    covers orders 1..EXHAUSTIVE_MAX_ORDER; other orders raise."""
    if not 1 <= n <= EXHAUSTIVE_MAX_ORDER:
        raise ValueError(f"exhaustive search supports orders 1..{EXHAUSTIVE_MAX_ORDER}, got {n}")
    return list(iter_reduced(n))


def _all_squares(reduced: list[LatinSquare]) -> list[int]:
    """Every square of the order of `reduced`, which holds all the reduced
    squares of that order, exactly once, as one int: int.from_bytes of its
    row-major bytes, little-endian, so cell i is byte i.  A square is a
    reduced square with its rows below the first in some order and its
    symbols relabelled by the permutation its first row reads, and these
    are unique: relabelling that row back to 1..n and sorting the rows by
    their first entry gives the reduced square back."""
    n = reduced[0].order
    row_orders = list(permutations(range(1, n)))
    natural = bytes(range(1, n + 1))
    tables = [bytes.maketrans(natural, bytes(sym)) for sym in permutations(natural)]
    squares = []
    for square in reduced:
        rows = list(map(bytes, square.grid))
        for order in row_orders:
            flat = rows[0] + b"".join([rows[r] for r in order])
            squares += [int.from_bytes(flat.translate(t), "little") for t in tables]
    return squares


def _minimal_trades(l: LatinSquare, squares: list) -> list[int]:
    """The minimal Latin trades in l as cell bitmasks (bit r*n + c),
    sorted by (size, mask).

    The difference from each square s is taken bytewise on the packed
    ints: x = own ^ s is nonzero in byte i exactly where the squares
    differ at cell i, and since symbols fit in 3 bits, x | x >> 1 | x >> 2
    gathers that into bit 0 of the byte.  Minimality is decided on these
    byte masks one size at a time, each minimal one clearing the larger
    masks that hold it; only the minimal ones are packed into cell
    bitmasks, through the binary digits of their bytes."""
    cells = l.cells()
    own = int.from_bytes(bytes(cells), "little")
    low = int.from_bytes(b"\1" * len(cells), "little")  # bit 0 of every byte
    diffs = {(x | x >> 1 | x >> 2) & low for x in map(own.__xor__, squares)}
    diffs.discard(0)
    spread = []
    rest = sorted(diffs, key=int.bit_count)
    while rest:
        # the smallest left are minimal: a difference inside one would be
        # smaller, so kept or holding a kept one, and would have cleared it
        k = bisect_right(rest, rest[0].bit_count(), key=int.bit_count)
        group, rest = rest[:k], rest[k:]
        for t in group:
            rest = [d for d in rest if t | d != d]
        spread += group
    digits = bytes.maketrans(b"\0\1", b"01")
    trades = [int(d.to_bytes(len(cells), "big").translate(digits), 2) for d in spread]
    return sorted(trades, key=lambda t: (t.bit_count(), t))


def _critical_sets(trades: Sequence[int], n2: int, best: Sequence[int] = (0,)) -> Iterator[int]:
    """The minimal transversals of the hypergraph on vertices 0..n2-1
    whose edges are the bitmasks `trades`, listed by MMCS as vertex
    bitmasks.  With the minimal trades of a square as edges and its cells
    as vertices (bit r*n + c), these are its critical sets.  Only the
    masks are read, so trades from any source plug in.

    best[0] is a size floor that the caller may raise between yields:
    only sets at least that large are listed, and branches that cannot
    reach it are pruned by the bound of the module docstring, which holds
    because each added cell needs its own private trade, uncovered now."""
    meets = [sum(1 << k for k, t in enumerate(trades) if t >> i & 1) for i in range(n2)]

    def mmcs(chosen: int, crit: list, uncovered: int, cand: int) -> Iterator[int]:
        # crit: per chosen cell, the trades it alone meets (never empty).
        # cand: cells still allowed; a branch's cells are held back and
        # released one by one, so each transversal is listed once.
        if not uncovered:
            if len(crit) >= best[0]:
                yield chosen
            return
        # one walk over the candidate cells of the uncovered trades: their
        # union, and the first trade with the fewest to branch on
        union, branch, fewest = 0, 0, n2 + 1
        rest = uncovered
        while rest:
            bit = rest & -rest
            rest ^= bit
            t = trades[bit.bit_length() - 1] & cand
            union |= t
            if t.bit_count() < fewest:
                branch, fewest = t, t.bit_count()
        if len(crit) + min(union.bit_count(), uncovered.bit_count()) < best[0]:
            return
        cand &= ~branch
        while branch:
            bit = branch & -branch
            branch ^= bit
            i = bit.bit_length() - 1
            met = meets[i]
            kept = list(map((~met).__and__, crit))
            if all(kept):
                kept.append(met & uncovered)
                yield from mmcs(chosen | bit, kept, uncovered & ~met, cand)
            cand |= bit

    return mmcs(0, [], (1 << len(trades)) - 1, (1 << n2) - 1)


def _set_triples(l: LatinSquare, mask: int) -> tuple[Triple, ...]:
    """The triples of l in a cell bitmask (bit r*n + c), row-major."""
    return tuple(t for i, t in enumerate(l.triples()) if mask >> i & 1)


def largest_critical_in(l: LatinSquare) -> PartialLatinSquare:
    """Largest critical set inside one square, exactly.

    Lists l's largest critical sets as cell bitmasks, the minimal
    transversals of its minimal trades (order <= EXHAUSTIVE_MAX_ORDER),
    and returns as triples the one whose triple tuple is smallest.
    """
    n = l.order
    sets = _largest_critical_sets(_minimal_trades(l, _all_squares(_reduced_squares(n))), n * n)
    return PartialLatinSquare.from_triples(n, _set_triples(l, _least_image(sets, n, range(n), range(n))))


def _isotopy_classes(squares: list) -> list:
    """Sort the reduced squares of one order (all of them) into isotopy
    classes, each a (representative, members) pair with members as
    (square, isotopism from the representative) in input order, the
    representative first.  Isotopisms are relabel's (row_perm, col_perm,
    sym_perm).

    A class is the orbit of its first square under row, column and symbol
    permutations.  A column order and a choice of first row fix the symbol
    map, since the first row must read 1..n; sorting the rows by their
    first entry then gives a reduced member.  So n!*n images walk an orbit,
    and the walk stops once every square is placed."""
    n = squares[0].order
    identity = list(range(n))
    natural = bytes(range(1, n + 1))
    index = {b"".join(map(bytes, s.grid)): k for k, s in enumerate(squares)}
    owner = [None] * len(squares)  # per square: (class number, isotopism)
    left = len(squares)
    reps = []
    for k, rep in enumerate(squares):
        if owner[k]:
            continue
        owner[k] = (len(reps), (identity,) * 3)
        reps.append(rep)
        left -= 1
        for cols in permutations(range(n)):
            if not left:
                break
            moved = [bytes([row[c] for c in cols]) for row in rep.grid]
            for first in moved:
                table = bytes.maketrans(first, natural)
                m = index[b"".join(sorted([row.translate(table) for row in moved]))]
                if owner[m] is None:
                    sym = [first.index(v) for v in natural]
                    rows = [sym[row[0] - 1] for row in moved]
                    owner[m] = (len(reps) - 1, (rows, [cols.index(c) for c in identity], sym))
                    left -= 1
    classes = [(rep, []) for rep in reps]
    for s, (number, iso) in zip(squares, owner):
        classes[number][1].append((s, iso))
    return classes


def _largest_critical_sets(trades: Sequence[int], n2: int, floor: int = 0) -> list[int]:
    """The largest minimal transversals of `trades` as `_critical_sets`
    lists them, in MMCS order, or none when their size is below floor.
    The search is a branch-and-bound: the largest size found so far, or
    floor if larger, prunes every branch that cannot reach it."""
    best = [floor]
    sets = []
    for c in _critical_sets(trades, n2, best):
        if c.bit_count() > best[0]:
            best[0], sets = c.bit_count(), []
        sets.append(c)
    return sets


def _least_image(masks: list[int], n: int, rows: Sequence[int], cols: Sequence[int]) -> int:
    """The mask among `masks`, cell bitmasks (bit r*n + c) of critical
    sets of one size in one square, whose image is the smallest triple
    tuple when cell (r, c) moves to (rows[r], cols[c]); under the
    identity, the one whose own triple tuple is smallest.  In the image
    square a cell fixes its symbol, so of two images the smaller holds
    the first cell, in the image's row-major order, that only one of them
    holds.  Walking the cells in that order and keeping, at each cell that
    some remaining set holds, only those sets leaves the smallest."""
    left = masks
    col_order = sorted(range(n), key=cols.__getitem__)
    for r in sorted(range(n), key=rows.__getitem__):
        for c in col_order:
            bit = 1 << r * n + c
            held = [m for m in left if m & bit]
            if held:
                left = held
    return left[0]


def lcs_exhaustive(n: int) -> LcsRecord:
    """Largest critical set size over all squares of order n, exactly.
    The witness is the smallest triple tuple among the largest critical
    sets of every reduced square.

    Row, column, and symbol relabelings (isotopisms) carry any square to
    a reduced one and are size-preserving bijections between the critical
    sets of two squares, so the trade hypergraph of one representative
    per isotopy class suffices.  The representative's autotopisms permute
    its own critical sets, so any single isotopism maps its largest sets
    onto exactly the largest sets of a class member.  Each class is
    searched with the size found so far as its floor, so a class whose
    largest sets are smaller (the cyclic class at order 5: 10 against 11)
    yields none, and a larger size drops the images kept before.  Each
    member, the representative first (the identity), keeps the one image
    that can be the witness, its smallest, found by `_least_image` on the
    masks; only that set is made into triples.
    """
    reduced = _reduced_squares(n)
    squares = _all_squares(reduced)
    value, images = 0, []
    for rep, members in _isotopy_classes(reduced):
        sets = _largest_critical_sets(_minimal_trades(rep, squares), n * n, value)
        if not sets:
            continue
        if sets[0].bit_count() > value:
            value, images = sets[0].bit_count(), []
        for member, (rows, cols, sym) in members:
            least = _set_triples(rep, _least_image(sets, n, rows, cols))
            images.append((_relabel_triples(least, rows, cols, sym), member))
    witness, square = min(images, key=lambda cs: cs[0])
    return LcsRecord(n, value, square, PartialLatinSquare.from_triples(n, witness))
