"""Completion counting and unique-completability for partial Latin squares.

Backtracking over empty cells with bitmask candidate sets.  Every search
node first closes under forced moves: naked singles (one candidate left
in a cell) and hidden singles (one admissible cell left for a symbol in a
row or column).  Branching picks a cell with the fewest candidates, ties
broken in row-major order, symbols tried ascending, so counts, the capped
flag, and witnesses are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import LatinSquare, PartialLatinSquare

FIXED_POINT = "fixed-point"
CONTRADICTION = "contradiction"


class NotUniqueError(ValueError):
    """unique_completion was called on a square with 0 or >= 2 completions."""

    def __init__(self, count: int):
        self.count = count
        detail = "no completion" if count == 0 else "more than one completion"
        super().__init__(f"square has {detail}")


@dataclass(frozen=True)
class CompletionReport:
    """count is exact unless capped; witnesses are up to two distinct
    completions, the lexicographically smallest serialized forms among
    those the deterministic search enumerated."""

    count: int
    capped: bool
    witnesses: tuple[LatinSquare, ...]


def _propagate_flat(n: int, cells: list, row_used: list, col_used: list) -> bool:
    """Fill forced cells in place until no rule fires.  Returns False on
    contradiction: an empty cell with no candidate, or a missing symbol
    with no admissible cell in its row or column."""
    full = (1 << n) - 1
    changed = True
    while changed:
        changed = False
        # naked singles
        for idx in range(n * n):
            if cells[idx]:
                continue
            r, c = divmod(idx, n)
            cand = full & ~(row_used[r] | col_used[c])
            if cand == 0:
                return False
            if cand & (cand - 1) == 0:
                cells[idx] = cand.bit_length()
                row_used[r] |= cand
                col_used[c] |= cand
                changed = True
        # hidden singles in rows
        for r in range(n):
            missing = full & ~row_used[r]
            base = r * n
            while missing:
                bit = missing & -missing
                missing ^= bit
                spots = 0
                spot = -1
                for c in range(n):
                    if cells[base + c] == 0 and not col_used[c] & bit:
                        spots += 1
                        if spots > 1:
                            break
                        spot = c
                if spots == 0:
                    return False
                if spots == 1:
                    cells[base + spot] = bit.bit_length()
                    row_used[r] |= bit
                    col_used[spot] |= bit
                    changed = True
        # hidden singles in columns
        for c in range(n):
            missing = full & ~col_used[c]
            while missing:
                bit = missing & -missing
                missing ^= bit
                spots = 0
                spot = -1
                for r in range(n):
                    if cells[r * n + c] == 0 and not row_used[r] & bit:
                        spots += 1
                        if spots > 1:
                            break
                        spot = r
                if spots == 0:
                    return False
                if spots == 1:
                    cells[spot * n + c] = bit.bit_length()
                    row_used[spot] |= bit
                    col_used[c] |= bit
                    changed = True
    return True


def _used_masks(n: int, cells: list) -> tuple[list, list]:
    """Per-row and per-column bitmasks of the symbols a flat grid uses."""
    row_used = [0] * n
    col_used = [0] * n
    for idx, v in enumerate(cells):
        if v:
            bit = 1 << (v - 1)
            r, c = divmod(idx, n)
            row_used[r] |= bit
            col_used[c] |= bit
    return row_used, col_used


def _serialize_flat(n: int, cells: list) -> str:
    return "\n".join(
        " ".join(str(v) for v in cells[r * n : (r + 1) * n]) for r in range(n)
    )


class _Counter:
    """Counts completions up to an optional cap, keeping the two smallest
    serialized completions seen."""

    __slots__ = ("n", "cap", "count", "best")

    def __init__(self, n: int, cap):
        self.n = n
        self.cap = cap
        self.count = 0
        self.best = []  # [(serialized, cells tuple)], at most 2, sorted

    def record(self, cells: list):
        self.count += 1
        key = _serialize_flat(self.n, cells)
        best = self.best
        if len(best) < 2:
            best.append((key, tuple(cells)))
            best.sort()
        elif key < best[1][0]:
            best[1] = (key, tuple(cells))
            best.sort()

    def search(self, cells: list, row_used: list, col_used: list):
        if not _propagate_flat(self.n, cells, row_used, col_used):
            return
        n = self.n
        full = (1 << n) - 1
        best_idx = -1
        best_cand = 0
        best_width = n + 1
        for idx in range(n * n):
            if cells[idx]:
                continue
            r, c = divmod(idx, n)
            cand = full & ~(row_used[r] | col_used[c])
            width = cand.bit_count()
            if width < best_width:
                best_idx, best_cand, best_width = idx, cand, width
                if width == 2:  # propagation leaves no narrower cell
                    break
        if best_idx < 0:
            self.record(cells)
            return
        r, c = divmod(best_idx, n)
        cand = best_cand
        while cand:
            bit = cand & -cand
            cand ^= bit
            branch = cells[:]
            branch[best_idx] = bit.bit_length()
            rows = row_used[:]
            cols = col_used[:]
            rows[r] |= bit
            cols[c] |= bit
            self.search(branch, rows, cols)
            if self.cap is not None and self.count >= self.cap:
                return


def _count_flat(n: int, cells: list, cap) -> tuple[int, list]:
    """Core counting loop on a flat grid (0 = empty).  Returns the count
    (saturated at cap) and up to two witness grids as flat tuples."""
    counter = _Counter(n, cap)
    flat = list(cells)
    counter.search(flat, *_used_masks(n, flat))
    return counter.count, [w for _, w in counter.best]


def propagate(p: PartialLatinSquare) -> tuple[PartialLatinSquare, str]:
    """Closure of `p` under forced moves, with FIXED_POINT or
    CONTRADICTION status.  The completion set is unchanged either way."""
    n = p.order
    cells = [v for row in p.grid for v in row]
    ok = _propagate_flat(n, cells, *_used_masks(n, cells))
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
