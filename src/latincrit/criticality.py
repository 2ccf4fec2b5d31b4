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
2004).  Listing every square of order n gives the trades directly, and
MMCS (Murakami & Uno 2014) lists the transversals without calling the
solver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, NamedTuple

from .core import LatinSquare, PartialLatinSquare, Triple, remove_entry
from .enumeration import iter_reduced
from .solver import NotUniqueError, _count_flat, count_completions

# Known largest-critical-set values for small orders, and published lower
# bounds where the exact value is open.  lcs(8) = 4^3 - 3^3.
KNOWN_LCS = {1: 0, 2: 1, 3: 3, 4: 7, 5: 11, 6: 18}
KNOWN_LCS_LOWER_BOUNDS = {7: 25, 8: 37, 9: 44, 10: 57}

# Exhaustive search lists all L(n) squares: 576 at order 4, 161,280 at
# order 5, which is opt-in.
EXHAUSTIVE_MAX_ORDER = 4
EXHAUSTIVE_OPT_IN_ORDER = 5


@dataclass(frozen=True)
class RemovalCheck:
    """Outcome of deleting one entry from a uniquely completable set.
    still_unique means the entry is redundant (a minimality violation);
    otherwise second_completion witnesses the enlarged completion set."""

    triple: Triple
    still_unique: bool
    second_completion: LatinSquare | None


@dataclass(frozen=True)
class CriticalityReport:
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


class LargestCritical(NamedTuple):
    size: int
    witness: PartialLatinSquare
    exact: bool


@dataclass(frozen=True)
class LcsRecord:
    order: int
    value: int
    witness_square: LatinSquare
    witness_set: PartialLatinSquare


def verify_critical(c: PartialLatinSquare) -> CriticalityReport:
    """Full criticality check: unique completability plus, per entry,
    whether its removal keeps the set uniquely completable."""
    report = count_completions(c, cap=2)
    if report.count != 1:
        second = report.witnesses[1] if len(report.witnesses) > 1 else None
        return CriticalityReport(
            uniquely_completable=False,
            minimal=False,
            completion=None,
            second_completion=second,
            removal_checks=(),
        )
    completion = report.witnesses[0]
    checks = []
    for t in c.triples():
        sub = count_completions(remove_entry(c, (t.row, t.col)), cap=2)
        if sub.count == 1:
            checks.append(RemovalCheck(t, True, None))
        else:
            # sub.count == 2: removal cannot empty the completion set
            other = next(w for w in sub.witnesses if w.grid != completion.grid)
            checks.append(RemovalCheck(t, False, other))
    return CriticalityReport(
        uniquely_completable=True,
        minimal=not any(ch.still_unique for ch in checks),
        completion=completion,
        second_completion=None,
        removal_checks=tuple(checks),
    )


def minimize_uc(
    p: PartialLatinSquare,
    removal_order: str = "row-major",
    seed: int = 0,
) -> PartialLatinSquare:
    """Greedily drop entries whose removal keeps the set uniquely
    completable, repeating until a full pass removes nothing.  The result
    is a critical set with the same unique completion as the input.

    removal_order "row-major" is the deterministic default; "random"
    shuffles each pass with the given seed for heuristic portfolios.
    """
    if removal_order not in ("row-major", "random"):
        raise ValueError(f"unknown removal order {removal_order!r}")
    n = p.order
    cells = [v for row in p.grid for v in row]
    count, _ = _count_flat(n, cells, 2)
    if count != 1:
        raise NotUniqueError(count)
    rng = random.Random(seed)
    removed = True
    while removed:
        removed = False
        filled = [idx for idx in range(n * n) if cells[idx]]
        if removal_order == "random":
            rng.shuffle(filled)
        for idx in filled:
            kept = cells[idx]
            cells[idx] = 0
            count, _ = _count_flat(n, cells, 2)
            if count == 1:
                removed = True
            else:
                cells[idx] = kept
    return PartialLatinSquare([cells[r * n : (r + 1) * n] for r in range(n)])


def _check_exhaustive_order(n: int, allow_large: bool):
    limit = EXHAUSTIVE_OPT_IN_ORDER if allow_large else EXHAUSTIVE_MAX_ORDER
    if not 1 <= n <= limit:
        hint = "" if allow_large else " (allow_large=True permits order 5)"
        raise ValueError(f"exhaustive search supports orders 1..{limit}, got {n}{hint}")


def _all_squares(n: int) -> list[bytes]:
    """Every square of order n exactly once, as flat row-major bytes:
    each reduced square with its columns in every order and its rows
    below the first in every order."""
    squares = []
    for reduced in iter_reduced(n):
        for cols in permutations(range(n)):
            for rows in permutations(range(1, n)):
                squares.append(bytes(reduced.grid[r][c] for r in (0, *rows) for c in cols))
    return squares


def _critical_sets(l: LatinSquare, squares: list) -> Iterator[tuple[Triple, ...]]:
    """Critical sets of l as row-major triples: the minimal transversals
    of l's minimal trades (cell bitmasks, bit r*n + c), listed by MMCS."""
    cells = [v for row in l.grid for v in row]
    diffs = {sum(1 << i for i, (a, b) in enumerate(zip(cells, s)) if a != b) for s in squares}
    trades = []
    for d in sorted(diffs - {0}, key=int.bit_count):
        if all(t & d != t for t in trades):
            trades.append(d)
    meets = [sum(1 << k for k, t in enumerate(trades) if t >> i & 1) for i in range(len(cells))]

    def mmcs(chosen: int, crit: dict, uncovered: int, cand: int) -> Iterator[int]:
        # crit: per chosen cell, the trades it alone meets (never empty).
        # cand: cells still allowed; a branch's cells are held back and
        # released one by one, so each transversal is listed once.
        if not uncovered:
            yield chosen
            return
        open_trades = (trades[k] for k in range(len(trades)) if uncovered >> k & 1)
        branch = min((t & cand for t in open_trades), key=int.bit_count)
        cand &= ~branch
        for i in range(len(cells)):
            if branch >> i & 1:
                kept = {j: c & ~meets[i] for j, c in crit.items()}
                if all(kept.values()):
                    kept[i] = meets[i] & uncovered
                    yield from mmcs(chosen | 1 << i, kept, uncovered & ~meets[i], cand)
                cand |= 1 << i

    triples = l.triples()
    for mask in mmcs(0, {}, (1 << len(trades)) - 1, (1 << len(cells)) - 1):
        # from a list: tuple() of a generator resizes, so freed tuples of
        # each size pile up unused in the interpreter's free lists
        yield tuple([t for i, t in enumerate(triples) if mask >> i & 1])


def _largest_first(c: tuple[Triple, ...]):
    """Witness order: larger sets first, then smaller triple tuples."""
    return -len(c), c


def largest_critical_in(
    l: LatinSquare,
    exhaustive: bool = True,
    allow_large: bool = False,
    seed: int = 0,
    starts: int = 32,
) -> LargestCritical:
    """Largest critical set inside one square.

    Exhaustive mode lists the critical sets of l as the minimal
    transversals of its minimal Latin trades (order <= 4 enforced, 5
    opt-in via allow_large) and returns a largest one, ties broken by the
    smallest triple tuple.  Heuristic mode takes the best of `starts`
    seeded random-order minimizations of the full square and returns a
    lower bound (exact=False).
    """
    if exhaustive:
        _check_exhaustive_order(l.order, allow_large)
        witness = min(_critical_sets(l, _all_squares(l.order)), key=_largest_first)
        return LargestCritical(len(witness), PartialLatinSquare.from_triples(l.order, witness), True)
    best = None
    for k in range(starts):
        c = minimize_uc(l, removal_order="random", seed=seed + k)
        key = (-c.size, c.triples())
        if best is None or key < best[0]:
            best = (key, c)
    return LargestCritical(size=best[1].size, witness=best[1], exact=False)


def lcs_exhaustive(n: int, allow_large: bool = False) -> LcsRecord:
    """Largest critical set size over all squares of order n, exactly.

    Row, column, and symbol relabelings map critical sets to critical
    sets bijectively and carry any square to a reduced one, so the
    maximum over reduced squares equals the maximum over all squares.
    """
    _check_exhaustive_order(n, allow_large)
    squares = _all_squares(n)
    witness, square = min(
        ((c, s) for s in iter_reduced(n) for c in _critical_sets(s, squares)),
        key=lambda cs: _largest_first(cs[0]),
    )
    return LcsRecord(n, len(witness), square, PartialLatinSquare.from_triples(n, witness))
